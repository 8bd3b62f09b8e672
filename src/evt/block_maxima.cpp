#include "evt/block_maxima.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace spta::evt {

std::vector<double> BlockMaxima(std::span<const double> xs,
                                std::size_t block_size) {
  SPTA_REQUIRE(block_size >= 1);
  const std::size_t n_blocks = xs.size() / block_size;
  SPTA_REQUIRE_MSG(n_blocks >= 1, "sample of " << xs.size()
                                               << " has no complete block of "
                                               << block_size);
  std::vector<double> maxima;
  maxima.reserve(n_blocks);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const auto block = xs.subspan(b * block_size, block_size);
    maxima.push_back(*std::max_element(block.begin(), block.end()));
  }
  return maxima;
}

std::size_t SuggestBlockSize(std::size_t sample_size, std::size_t min_blocks) {
  SPTA_REQUIRE(min_blocks >= 1);
  SPTA_REQUIRE_MSG(sample_size >= min_blocks,
                   "sample=" << sample_size << " min_blocks=" << min_blocks);
  return std::max<std::size_t>(1, sample_size / min_blocks);
}

}  // namespace spta::evt
