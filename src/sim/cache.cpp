#include "sim/cache.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"

namespace spta::sim {

Cache::Cache(const CacheConfig& config, Seed seed)
    : config_(config),
      sets_(config.num_sets()),
      set_shift_(static_cast<std::uint32_t>(std::countr_zero(sets_))),
      line_shift_(static_cast<std::uint32_t>(
          std::countr_zero(config.line_bytes))),
      index_mask_(sets_ - 1),
      placement_seed_(seed),
      replacement_rng_(prng::HwPrng(DeriveSeed(seed, "cache-repl"))),
      tags_(static_cast<std::size_t>(sets_) * config.ways, kInvalidTag),
      stamps_(static_cast<std::size_t>(sets_) * config.ways, 0),
      ref_bits_(sets_, 0) {
  SPTA_REQUIRE(std::has_single_bit(sets_));
  // The NRU reference mask packs one bit per way into a 64-bit word (64
  // ways also covers the fully associative configurations tests use).
  SPTA_REQUIRE(config.ways >= 1 && config.ways <= 64);
}

std::uint32_t Cache::Victim(std::uint32_t set) {
  const std::size_t base = static_cast<std::size_t>(set) * config_.ways;
  // Prefer an invalid way.
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    if (tags_[base + w] == kInvalidTag) return w;
  }
  switch (config_.replacement) {
    case Replacement::kLru: {
      std::uint32_t victim = 0;
      for (std::uint32_t w = 1; w < config_.ways; ++w) {
        if (stamps_[base + w] < stamps_[base + victim]) victim = w;
      }
      return victim;
    }
    case Replacement::kRandom:
      return replacement_rng_.UniformBelow(config_.ways);
    case Replacement::kNru: {
      // Evict the first non-referenced way; if all referenced, clear the
      // bits (aging) and evict way 0.
      const std::uint32_t first_clear =
          static_cast<std::uint32_t>(std::countr_one(ref_bits_[set]));
      if (first_clear < config_.ways) return first_clear;
      ref_bits_[set] = 0;
      return 0;
    }
  }
  SPTA_CHECK_MSG(false, "unreachable replacement policy");
  return 0;
}

void Cache::Flush() {
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  std::fill(stamps_.begin(), stamps_.end(), 0);
  std::fill(ref_bits_.begin(), ref_bits_.end(), 0u);
  mru_index_ = 0;
  mru_set_ = 0;
  mru_way_ = 0;
  access_clock_ = 0;
}

void Cache::Reseed(Seed seed) {
  placement_seed_ = seed;
  replacement_rng_ =
      prng::BlockDraws<prng::HwPrng>(prng::HwPrng(DeriveSeed(seed,
                                                             "cache-repl")));
  Flush();
}

}  // namespace spta::sim
