// Reference (pre-fast-path) cache and TLB lookup implementations.
//
// These are the seed implementations the optimized sim/cache.hpp and
// sim/tlb.hpp were refactored from: naive array-of-structs per-line state,
// early-exit hit scans, a direct (unbatched) HwPrng replacement stream.
// They are retained VERBATIM in behavior as the executable specification of
// the lookup semantics: tests/sim_equivalence_test.cpp drives both paths
// over randomized trace/seed/config matrices across every placement ×
// replacement policy combination and asserts identical hit/miss streams,
// victim choices and statistics. They are not used on any production path.
//
// The tag/VPN upset methods mirror the fast models' fault-injection
// surface on the seed layout: a slot's word is its tag when valid and the
// all-ones sentinel when not, one bit of it flips, and the slot is valid
// again exactly when the word is not the sentinel. A flip can thereby
// forge a second copy of a line or page; lookups take the first match.
//
// When changing cache/TLB semantics deliberately, change BOTH models and
// re-baseline the golden cycle counts (tests/golden_regression_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "prng/hw_prng.hpp"
#include "sim/cache.hpp"
#include "sim/config.hpp"
#include "sim/tlb.hpp"

namespace spta::sim {

/// Seed implementation of sim::Cache (same constructor semantics, same
/// seed-derivation labels, same PRNG consumption).
class ReferenceCache {
 public:
  ReferenceCache(const CacheConfig& config, Seed seed);

  bool Access(Address addr, bool allocate_on_miss = true);
  void Flush();
  void Reseed(Seed seed);
  std::uint32_t SetIndexFor(Address addr) const;

  const CacheConfig& config() const { return config_; }
  const CacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CacheStats{}; }

  // Per-slot state in the fast model's encoding (slot = set * ways + way).
  void CorruptTagBit(std::size_t slot, unsigned bit);
  std::uint64_t TagAt(std::size_t slot) const;
  std::uint64_t StampAt(std::size_t slot) const {
    return lines_[slot].lru_stamp;
  }
  bool ReferencedAt(std::size_t slot) const {
    return lines_[slot].referenced;
  }

 private:
  struct Line {
    bool valid = false;
    std::uint64_t tag = 0;
    std::uint64_t lru_stamp = 0;  ///< Higher = more recent (LRU policy).
    bool referenced = false;      ///< NRU reference bit.
  };

  std::uint64_t LineNumber(Address addr) const;
  std::uint32_t Victim(std::uint32_t set);

  CacheConfig config_;
  std::uint32_t sets_;
  std::uint32_t line_shift_;
  std::uint32_t index_mask_;
  Seed placement_seed_;
  prng::HwPrng replacement_rng_;
  std::vector<Line> lines_;  ///< sets_ * ways, row-major by set.
  std::uint64_t access_clock_ = 0;
  CacheStats stats_;
};

/// Seed implementation of sim::Tlb.
class ReferenceTlb {
 public:
  ReferenceTlb(const TlbConfig& config, Seed seed);

  bool Access(Address addr);
  void Flush();
  void Reseed(Seed seed);

  const TlbConfig& config() const { return config_; }
  const TlbStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TlbStats{}; }

  // Per-entry state in the fast model's encoding.
  void CorruptVpnBit(std::size_t slot, unsigned bit);
  std::uint64_t VpnAt(std::size_t slot) const;
  std::uint64_t StampAt(std::size_t slot) const {
    return entries_[slot].lru_stamp;
  }
  bool ReferencedAt(std::size_t slot) const {
    return entries_[slot].referenced;
  }

 private:
  struct Entry {
    bool valid = false;
    std::uint64_t vpn = 0;
    std::uint64_t lru_stamp = 0;
    bool referenced = false;
  };

  std::uint32_t Victim();

  TlbConfig config_;
  std::uint32_t page_shift_;
  prng::HwPrng replacement_rng_;
  std::vector<Entry> entries_;
  std::uint64_t access_clock_ = 0;
  TlbStats stats_;
};

}  // namespace spta::sim
