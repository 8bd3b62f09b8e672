// Set-associative cache model with pluggable placement and replacement.
//
// This is the heart of the time-randomized platform: the paper's hardware
// modifications replace conventional modulo placement / LRU replacement with
// random-modulo placement (Hernandez et al., DAC 2016) and random
// replacement (Kosmidis et al., DATE 2013), both driven by the platform
// PRNG. The model tracks tags only (no data — the interpreter holds
// functional state) and reports hit/miss per access; timing is applied by
// the core model.
//
// Fast-path layout: the per-line metadata is stored structure-of-arrays —
// one flat set-indexed tag array (validity encoded as a sentinel tag), one
// stamp array for LRU, one reference-bit mask per set for NRU — so the hit
// scan is a branch-free compare loop over `ways` consecutive words that the
// compiler can unroll and vectorize. In front of the scan sit two lookup
// shortcuts: the slot of the last hit or fill, and a small line -> slot
// hint table. Access() is split in two: the shortcut probe lives in the
// header and is forced inline, so a hit found by a shortcut costs the
// core's retire loops no call; the way scan, victim choice and fill are
// one out-of-line cold function in cache.cpp. Observable behavior
// (hit/miss stream, PRNG consumption, victim choice, stats) is
// bit-identical to the reference implementation retained in
// sim/reference_model.hpp; the equivalence battery in
// tests/sim_equivalence_test.cpp enforces this.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "common/types.hpp"
#include "prng/block_draws.hpp"
#include "prng/hw_prng.hpp"
#include "sim/config.hpp"
#include "sim/placement.hpp"

namespace spta::sim {

/// Per-access statistics counters.
struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;

  double MissRatio() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(misses) /
                               static_cast<double>(accesses);
  }
};

class Cache {
 public:
  /// Builds an empty cache; `seed` drives the placement hash and the random
  /// replacement stream (ignored by deterministic policies).
  Cache(const CacheConfig& config, Seed seed);

  /// Looks up the line containing `addr`; allocates on a read miss.
  /// `allocate_on_miss=false` models write-through no-write-allocate stores.
  /// Returns true on hit.
  ///
  /// This is the hit probe, forced inline into the retire loops: it checks
  /// the two lookup shortcuts and returns on a hit there, which is almost
  /// every hit. Everything else (the way scan, victim choice and fill) is
  /// ScanOrFill, out of line.
  [[gnu::always_inline]] bool Access(Address addr,
                                     bool allocate_on_miss = true) {
    ++stats_.accesses;
    ++access_clock_;
    const std::uint64_t line = LineNumber(addr);
    // MRU shortcut: consecutive accesses mostly stay within one line
    // (sequential code fetch, stride-1 data walks), so re-checking the
    // last hit/fill slot skips the placement hash and the way scan. The
    // tag compare doubles as the validity check: a line the scan would
    // find is in at most one slot of its set, and if it was evicted the
    // stored tag differs. The state update is identical to the scan
    // path's, so this is observationally transparent.
    if (tags_[mru_index_] == line) {
      stamps_[mru_index_] = access_clock_;
      ref_bits_[mru_set_] |= 1ULL << mru_way_;
      return true;
    }
    // Hint: the slot this line was last hit or filled in, validated the
    // same way. Both shortcuts only ever name the slot the scan would
    // pick: every scan hit and fill records its slot, and CorruptTagBit
    // (the only other writer of tags) forgets both.
    const std::uint32_t hint = hints_[line & hint_mask_];
    const std::uint32_t hint_set = hint >> kWayBits;
    const std::uint32_t hint_way = hint & kWayMask;
    const std::size_t hinted =
        static_cast<std::size_t>(hint_set) * config_.ways + hint_way;
    if (tags_[hinted] == line) {
      stamps_[hinted] = access_clock_;
      ref_bits_[hint_set] |= 1ULL << hint_way;
      RememberMru(hinted, hint_set, hint_way);
      return true;
    }
    return ScanOrFill(line, allocate_on_miss);
  }

  /// Applies `count` >= 1 accesses that hit the MRU line, in O(1): the
  /// same counters, final stamp and reference bit as `count` Access calls
  /// on that line (each intermediate restamp is overwritten by the next,
  /// and the reference bit is idempotent). Valid only while the MRU slot
  /// holds the accessed line (the sim/fetch_rule.hpp guarantee).
  void MruHits(std::uint64_t count) {
    stats_.accesses += count;
    access_clock_ += count;
    stamps_[mru_index_] = access_clock_;
    ref_bits_[mru_set_] |= 1ULL << mru_way_;
  }

  /// Invalidates all lines (the per-run cache flush of the MBPTA protocol).
  void Flush();

  /// Installs a new seed (new placement mapping + replacement stream) and
  /// flushes. Called between measurement runs on the RAND platform.
  void Reseed(Seed seed);

  /// Computes the set index for `addr` under the current seed/policy.
  /// Exposed for property tests of the placement functions.
  std::uint32_t SetIndexFor(Address addr) const {
    return SetIndexForLine(LineNumber(addr));
  }

  const CacheConfig& config() const { return config_; }
  const CacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CacheStats{}; }

  /// Replacement-stream consumption since the last Reseed (src/obs
  /// attribution). Reseed rebuilds the stream, so these reset per run
  /// under the normal measurement protocol.
  prng::DrawStats draw_stats() const { return replacement_rng_.stats(); }

  // --- Fault-injection surface (src/fault) -------------------------------
  // SEU-style state corruption for the seeded fault-injection subsystem:
  // a single-event upset in the tag/valid array is modeled by XORing one
  // bit of one tag word. Because validity is sentinel-encoded in the tag
  // itself, a flip in an invalid way forges a bogus "valid" line and a
  // flip in a valid way retags (or invalidates) a real one — exactly the
  // two observable SEU failure modes of a real tag RAM. These methods are
  // never called on the measurement hot path; Access() is untouched.

  /// Number of tag slots (sets * ways); slots index the flat tag array.
  std::size_t TagSlots() const { return slots_; }

  /// Flips bit `bit` (0-63) of tag slot `slot`, and forgets both lookup
  /// shortcuts. A flip can forge a line in a set the placement never maps
  /// it to, or a second copy of a line in its own set; a shortcut kept
  /// across it could then hit where the scan would not look, or a
  /// different copy than the one the scan picks.
  void CorruptTagBit(std::size_t slot, unsigned bit) {
    SPTA_REQUIRE(slot < slots_);
    tags_[slot] ^= 1ULL << (bit & 63u);
    ForgetShortcuts();
  }

  /// Reads a tag slot back (test/fault-audit use).
  std::uint64_t TagAt(std::size_t slot) const { return tags_[slot]; }
  /// Reads a slot's LRU stamp back (test use).
  std::uint64_t StampAt(std::size_t slot) const { return stamps_[slot]; }
  /// Reads a slot's NRU reference bit back (test use).
  bool ReferencedAt(std::size_t slot) const {
    return (ref_bits_[slot / config_.ways] >> (slot % config_.ways)) & 1u;
  }

 private:
  /// Sentinel tag of an invalid way. Real tags are full line numbers,
  /// addr >> line_shift_ with line_shift_ >= 1, so all-ones is unreachable.
  static constexpr std::uint64_t kInvalidTag = ~0ULL;

  std::uint64_t LineNumber(Address addr) const { return addr >> line_shift_; }

  std::uint32_t SetIndexForLine(std::uint64_t line) const {
    return PlacementSetIndex(config_.placement, line, index_mask_, set_shift_,
                             placement_seed_);
  }

  /// The rest of Access after both shortcuts missed: the way scan, and on
  /// a miss the victim choice and fill.
  [[gnu::cold]] [[gnu::noinline]] bool ScanOrFill(std::uint64_t line,
                                                  bool allocate_on_miss);

  std::uint32_t Victim(std::uint32_t set);

  /// A hint-table entry packs the slot a line was last found in as
  /// set << kWayBits | way (at most 64 ways).
  static constexpr unsigned kWayBits = 6;
  static constexpr std::uint32_t kWayMask = (1u << kWayBits) - 1;

  void RememberMru(std::size_t index, std::uint32_t set, std::uint32_t way) {
    mru_index_ = index;
    mru_set_ = set;
    mru_way_ = way;
  }

  void Remember(std::uint64_t line, std::size_t index, std::uint32_t set,
                std::uint32_t way) {
    hints_[line & hint_mask_] = set << kWayBits | way;
    RememberMru(index, set, way);
  }

  /// Points both shortcuts at the sentinel slot, which no line matches.
  void ForgetShortcuts();

  CacheConfig config_;
  std::uint32_t sets_;
  std::uint32_t set_shift_;   ///< log2(sets_), cached for the placement hash.
  std::uint32_t line_shift_;
  std::uint32_t index_mask_;
  Seed placement_seed_;
  prng::BlockDraws<prng::HwPrng> replacement_rng_;
  std::size_t slots_;  ///< sets_ * ways.
  /// Flat set-major arrays, sets_ * ways each, plus one sentinel slot at
  /// index slots_ (set sets_, way 0) whose tag stays kInvalidTag: a
  /// forgotten shortcut points there.
  std::vector<std::uint64_t> tags_;    ///< Line number, or kInvalidTag.
  std::vector<std::uint64_t> stamps_;  ///< Higher = more recent (LRU).
  std::vector<std::uint64_t> ref_bits_;  ///< Per-set NRU reference bitmask.
  /// Line -> slot hints, indexed by the line's low bits.
  std::vector<std::uint32_t> hints_;
  std::uint64_t hint_mask_;
  /// Slot of the last hit/fill (lookup shortcut; tags_[mru_index_] is the
  /// line it refers to, or kInvalidTag after a flush).
  std::size_t mru_index_ = 0;
  std::uint32_t mru_set_ = 0;
  std::uint32_t mru_way_ = 0;
  std::uint64_t access_clock_ = 0;
  CacheStats stats_;
};

}  // namespace spta::sim
