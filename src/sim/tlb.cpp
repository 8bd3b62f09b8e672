#include "sim/tlb.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"
#include "common/hash.hpp"

namespace spta::sim {

Tlb::Tlb(const TlbConfig& config, Seed seed)
    : config_(config),
      page_shift_(static_cast<std::uint32_t>(
          std::countr_zero(config.page_bytes))),
      replacement_rng_(prng::HwPrng(DeriveSeed(seed, "tlb-repl"))),
      vpns_(config.entries, kInvalidVpn),
      stamps_(config.entries, 0),
      ref_(config.entries, 0) {
  SPTA_REQUIRE(std::has_single_bit(config.page_bytes));
}

std::uint32_t Tlb::Victim() {
  const std::uint32_t n = static_cast<std::uint32_t>(vpns_.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    if (vpns_[i] == kInvalidVpn) return i;
  }
  switch (config_.replacement) {
    case Replacement::kLru: {
      std::uint32_t victim = 0;
      for (std::uint32_t i = 1; i < n; ++i) {
        if (stamps_[i] < stamps_[victim]) victim = i;
      }
      return victim;
    }
    case Replacement::kRandom:
      return replacement_rng_.UniformBelow(n);
    case Replacement::kNru: {
      for (std::uint32_t i = 0; i < n; ++i) {
        if (ref_[i] == 0) return i;
      }
      std::fill(ref_.begin(), ref_.end(), std::uint8_t{0});
      return 0;
    }
  }
  SPTA_CHECK_MSG(false, "unreachable replacement policy");
  return 0;
}

void Tlb::Flush() {
  std::fill(vpns_.begin(), vpns_.end(), kInvalidVpn);
  std::fill(stamps_.begin(), stamps_.end(), 0);
  std::fill(ref_.begin(), ref_.end(), std::uint8_t{0});
  mru_ = 0;
  access_clock_ = 0;
}

void Tlb::Reseed(Seed seed) {
  replacement_rng_ =
      prng::BlockDraws<prng::HwPrng>(prng::HwPrng(DeriveSeed(seed,
                                                             "tlb-repl")));
  Flush();
}

}  // namespace spta::sim
