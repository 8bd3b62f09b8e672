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
      entries_(config.entries),
      vpns_(entries_ + 1, kInvalidVpn),
      stamps_(entries_ + 1, 0),
      ref_(entries_ + 1, 0),
      // Twice the entries, so pages with nearby numbers rarely share one;
      // every hint starts at the sentinel entry.
      hints_(std::bit_ceil(2 * std::size_t{entries_}), entries_),
      hint_mask_(hints_.size() - 1),
      mru_(entries_) {
  SPTA_REQUIRE(std::has_single_bit(config.page_bytes));
  SPTA_REQUIRE(entries_ >= 1);
}

void Tlb::ForgetShortcuts() {
  std::fill(hints_.begin(), hints_.end(), entries_);
  mru_ = entries_;
}

bool Tlb::ScanOrFill(std::uint64_t vpn) {
  const std::uint32_t n = entries_;
  const std::uint64_t* vpns = vpns_.data();
  std::uint32_t hit = n;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (vpns[i] == vpn) {
      hit = i;
      break;
    }
  }
  if (hit != n) {
    stamps_[hit] = access_clock_;
    ref_[hit] = 1;
    Remember(vpn, hit);
    return true;
  }
  ++stats_.misses;
  const std::uint32_t victim = Victim();
  vpns_[victim] = vpn;
  stamps_[victim] = access_clock_;
  ref_[victim] = 1;
  Remember(vpn, victim);
  return false;
}

std::uint32_t Tlb::Victim() {
  const std::uint32_t n = entries_;
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
      std::fill(ref_.begin(), ref_.begin() + n, std::uint8_t{0});
      return 0;
    }
  }
  SPTA_CHECK_MSG(false, "unreachable replacement policy");
  return 0;
}

void Tlb::Flush() {
  // Every VPN becomes invalid, so the shortcuts need no reset (see
  // Cache::Flush).
  std::fill(vpns_.begin(), vpns_.end(), kInvalidVpn);
  std::fill(stamps_.begin(), stamps_.end(), 0);
  std::fill(ref_.begin(), ref_.end(), std::uint8_t{0});
  access_clock_ = 0;
}

void Tlb::Reseed(Seed seed) {
  replacement_rng_ =
      prng::BlockDraws<prng::HwPrng>(prng::HwPrng(DeriveSeed(seed,
                                                             "tlb-repl")));
  Flush();
}

}  // namespace spta::sim
