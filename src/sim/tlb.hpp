// Fully associative translation lookaside buffer.
//
// The paper's platform randomizes ITLB/DTLB replacement (64 entries each).
// The TLB model tracks virtual page numbers; a miss costs a fixed
// page-table-walk penalty, so the TLB's timing jitter comes only from the
// (possibly randomized) miss pattern.
//
// Fast-path layout: entries are stored structure-of-arrays (flat VPN array
// with a sentinel for invalid, stamp array, reference-bit vector) so the
// fully associative match is one branch-free compare loop over a contiguous
// word array — with 64 entries this is the single hottest scan in the
// simulator, executed once per instruction fetch and once per memory
// access. Two shortcuts front the scan: the entry of the last hit or fill,
// and a small page -> entry hint table. As in the cache, Access() is the
// shortcut probe, forced inline into the core's retire loops so a hit
// found by a shortcut makes no call, and the scan, victim choice and fill
// are one out-of-line cold function in tlb.cpp. Observable behavior is
// bit-identical to the reference model (sim/reference_model.hpp),
// enforced by tests/sim_equivalence_test.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "common/types.hpp"
#include "prng/block_draws.hpp"
#include "prng/hw_prng.hpp"
#include "sim/config.hpp"

namespace spta::sim {

struct TlbStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;

  double MissRatio() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(misses) /
                               static_cast<double>(accesses);
  }
};

class Tlb {
 public:
  Tlb(const TlbConfig& config, Seed seed);

  /// Translates the page containing `addr`, allocating on miss.
  /// Returns true on hit.
  ///
  /// The hit probe, forced inline as Cache::Access is: it checks the two
  /// shortcuts, and ScanOrFill (out of line) does the rest.
  [[gnu::always_inline]] bool Access(Address addr) {
    ++stats_.accesses;
    ++access_clock_;
    const std::uint64_t vpn = addr >> page_shift_;
    // MRU shortcut: consecutive fetches overwhelmingly touch the page of
    // the previous access, so re-checking the last-hit slot first skips the
    // associative scan almost always. Pure lookup optimization — the state
    // update on a hit is identical wherever the entry is found.
    const std::uint32_t mru = mru_;
    if (vpns_[mru] == vpn) {
      stamps_[mru] = access_clock_;
      ref_[mru] = 1;
      return true;
    }
    // Hint: the entry this page was last hit or filled in, validated by
    // the VPN compare. Both shortcuts only ever name the entry the scan
    // would pick: every scan hit and fill records it, and CorruptVpnBit
    // (the only other writer of VPNs) forgets both.
    const std::uint32_t hinted = hints_[vpn & hint_mask_];
    if (vpns_[hinted] == vpn) {
      stamps_[hinted] = access_clock_;
      ref_[hinted] = 1;
      mru_ = hinted;
      return true;
    }
    return ScanOrFill(vpn);
  }

  /// Applies `count` >= 1 accesses that hit the MRU entry, in O(1); see
  /// Cache::MruHits. Valid only while the MRU slot holds the page.
  void MruHits(std::uint64_t count) {
    stats_.accesses += count;
    access_clock_ += count;
    stamps_[mru_] = access_clock_;
    ref_[mru_] = 1;
  }

  /// Invalidates all entries.
  void Flush();

  /// New replacement stream + flush (per-run reseeding).
  void Reseed(Seed seed);

  const TlbConfig& config() const { return config_; }
  const TlbStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TlbStats{}; }

  /// Replacement-stream consumption since the last Reseed (src/obs
  /// attribution); resets per run with the reseeding protocol.
  prng::DrawStats draw_stats() const { return replacement_rng_.stats(); }

  // --- Fault-injection surface (src/fault) -------------------------------
  // Mirrors Cache::CorruptTagBit: an SEU in the VPN/valid array is one XORed
  // bit of one entry (validity is sentinel-encoded in the VPN). Never called
  // on the hot path; Access() is untouched.

  /// Number of TLB entries.
  std::size_t EntrySlots() const { return entries_; }

  /// Flips bit `bit` (0-63) of entry `slot`, and forgets both lookup
  /// shortcuts: a flip can forge a second copy of a page, and a shortcut
  /// kept across it could hit a different copy than the one the scan
  /// picks (see Cache::CorruptTagBit).
  void CorruptVpnBit(std::size_t slot, unsigned bit) {
    SPTA_REQUIRE(slot < entries_);
    vpns_[slot] ^= 1ULL << (bit & 63u);
    ForgetShortcuts();
  }

  /// Reads an entry's VPN back (test/fault-audit use).
  std::uint64_t VpnAt(std::size_t slot) const { return vpns_[slot]; }
  /// Reads an entry's LRU stamp back (test use).
  std::uint64_t StampAt(std::size_t slot) const { return stamps_[slot]; }
  /// Reads an entry's NRU reference bit back (test use).
  bool ReferencedAt(std::size_t slot) const { return ref_[slot] != 0; }

 private:
  /// Sentinel VPN of an invalid entry; real VPNs are addr >> page_shift_
  /// with page_shift_ >= 1, so all-ones is unreachable.
  static constexpr std::uint64_t kInvalidVpn = ~0ULL;

  /// The rest of Access after both shortcuts missed: the associative
  /// scan, and on a miss the victim choice and fill.
  [[gnu::cold]] [[gnu::noinline]] bool ScanOrFill(std::uint64_t vpn);

  std::uint32_t Victim();

  void Remember(std::uint64_t vpn, std::uint32_t slot) {
    hints_[vpn & hint_mask_] = slot;
    mru_ = slot;
  }

  /// Points both shortcuts at the sentinel entry, which no page matches.
  void ForgetShortcuts();

  TlbConfig config_;
  std::uint32_t page_shift_;
  prng::BlockDraws<prng::HwPrng> replacement_rng_;
  std::uint32_t entries_;
  /// Per-entry arrays, plus one sentinel entry at index entries_ whose VPN
  /// stays kInvalidVpn: a forgotten shortcut points there.
  std::vector<std::uint64_t> vpns_;    ///< VPN per entry, or kInvalidVpn.
  std::vector<std::uint64_t> stamps_;  ///< Higher = more recent (LRU).
  std::vector<std::uint8_t> ref_;     ///< NRU reference bits.
  /// Page -> entry hints, indexed by the VPN's low bits.
  std::vector<std::uint32_t> hints_;
  std::uint64_t hint_mask_;
  std::uint32_t mru_;  ///< Slot of the last hit/fill (lookup shortcut).
  std::uint64_t access_clock_ = 0;
  TlbStats stats_;
};

}  // namespace spta::sim
