// Disk-backed layer under the in-memory result cache: warm restarts.
//
// Every finished analysis already lives in the ResultCache as (key,
// verifier, rendered body). This store writes each such entry to its own
// file under a cache directory and reads them all back at startup, so a
// restarted daemon serves its first repeat request from cache instead of
// re-running the EVT pipeline — the fleet's warm-start story.
//
// File-per-entry, named by the key digest, written through
// common::AtomicWriteFile (tmp + fsync + rename): a crash mid-write
// leaves either the complete old entry or the complete new one, never a
// hybrid, and concurrent daemons sharing one directory (SO_REUSEPORT
// fleet members) cannot tear each other's files because the tmp names
// are pid-qualified. Loading trusts nothing: each file re-derives the
// body digest recorded in its header and a mismatched, truncated or
// otherwise mangled entry is rejected and counted — a corrupt file is
// recomputed on demand, never served.
//
// The store is bounded and self-protecting:
//   * Limits::max_bytes caps the on-disk footprint; overshoot evicts the
//     least-recently-written entries (eviction = one atomic unlink, so a
//     crash mid-eviction loses nothing but already-doomed entries).
//   * Real ENOSPC/EDQUOT (or the simulated quota_bytes device used by
//     the chaos harness) triggers one evict-and-retry; a second failure
//     counts a typed enospc failure and degrades the store sticky to
//     memory-only — the daemon keeps serving, it just stops persisting.
//     EIO degrades the same way. A full or dying disk never aborts the
//     process and never serves a corrupt entry.
//   * LoadAll refuses pathological directories: entries above
//     Limits::load_max_entry_bytes are skipped by stat() without being
//     read, and at most Limits::load_max_entries files are decoded — a
//     wedged or adversarial cache dir cannot OOM a warm start.
//
// Entry format (one header line, then the raw body bytes):
//
//   sptac1 <key:16hex> <verifier:16hex> <nbytes> <digest_lo:16hex> <digest_hi:16hex>\n
//   <nbytes bytes of body>
//
// where digest_lo/hi are the common::DualHash of the body bytes.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/hash.hpp"

namespace spta::service {

class PersistentResultCache {
 public:
  /// Bounds on the store. Zero means "unlimited" for the byte caps; the
  /// load caps always apply (their defaults are generous, not infinite).
  struct Limits {
    /// On-disk budget; exceeding it evicts least-recently-written
    /// entries. 0 = unbounded (legacy behavior).
    std::uint64_t max_bytes = 0;
    /// Simulated device capacity for fault injection: a Put that would
    /// push the tracked footprint past this behaves exactly like the
    /// filesystem returning ENOSPC. 0 = no simulation.
    std::uint64_t quota_bytes = 0;
    /// LoadAll unlinks (and counts) any entry file larger than this
    /// without reading it.
    std::uint64_t load_max_entry_bytes = 80ull * 1024 * 1024;
    /// LoadAll decodes at most this many entry files; the rest are
    /// counted as skipped.
    std::uint64_t load_max_entries = 65536;
  };

  struct Stats {
    std::uint64_t loaded = 0;    ///< Entries restored by LoadAll.
    std::uint64_t rejected = 0;  ///< Corrupt or unusable files refused.
    std::uint64_t stored = 0;    ///< Entries written this process.
    std::uint64_t store_failures = 0;
    std::uint64_t evicted = 0;        ///< Entries unlinked to stay in budget.
    std::uint64_t evicted_bytes = 0;  ///< Bytes reclaimed by eviction.
    std::uint64_t enospc_failures = 0;  ///< ENOSPC/EDQUOT Puts (post-retry).
    std::uint64_t eio_failures = 0;     ///< EIO Puts.
    std::uint64_t degraded = 0;  ///< Sticky 0/1: store gave up persisting.
    std::uint64_t load_skipped_oversize = 0;  ///< Files over the entry cap.
    std::uint64_t load_skipped_overflow = 0;  ///< Files over the count cap.
  };

  /// The directory must already exist (callers own directory policy).
  explicit PersistentResultCache(std::string dir) : dir_(std::move(dir)) {}
  PersistentResultCache(std::string dir, Limits limits)
      : dir_(std::move(dir)), limits_(limits) {}

  /// Persists one cache entry; false (and a counted failure) when the
  /// filesystem refuses or the store has degraded to memory-only.
  /// Thread-safe.
  bool Put(std::uint64_t key, std::uint64_t verifier, std::string_view body);

  /// Scans the directory and offers every VALIDATED entry to `sink`,
  /// which returns false for a body no request can look up; returns how
  /// many entries the sink accepted. Oversized files, invalid files and
  /// refused entries are counted and unlinked: outside the eviction
  /// index, nothing else would ever reclaim them. Files past the
  /// load_max_entries cap are valid and stay. Accepted entries seed the
  /// eviction index, so a warm-started store stays within budget.
  std::size_t LoadAll(
      const std::function<bool(std::uint64_t key, std::uint64_t verifier,
                               std::string body)>& sink);

  Stats stats() const;
  const std::string& dir() const { return dir_; }
  const Limits& limits() const { return limits_; }

  /// True once the store has given up persisting (sticky). The in-memory
  /// cache above it is unaffected.
  bool degraded() const;

  /// Filename an entry lands under (inside dir): "<key:16hex>.sptac".
  static std::string EntryFileName(std::uint64_t key);

  /// Serialization, exposed so tests can forge corrupt entries.
  static std::string EncodeEntry(std::uint64_t key, std::uint64_t verifier,
                                 std::string_view body);
  /// Strict inverse; false on any header/length/digest mismatch.
  static bool DecodeEntry(std::string_view contents, std::uint64_t* key,
                          std::uint64_t* verifier, std::string* body);

  /// The integrity digest over an entry's body bytes.
  static DualHash BodyDigest(std::string_view body);

 private:
  /// Unlinks the least-recently-written entry; false when none remain.
  /// Caller holds mutex_.
  bool EvictOneLocked();
  /// Drops `key` from the index/footprint (entry being overwritten or
  /// evicted). Caller holds mutex_.
  void ForgetLocked(std::uint64_t key);
  /// Records `key` at `bytes` as most-recently-written. Caller holds
  /// mutex_.
  void RememberLocked(std::uint64_t key, std::uint64_t bytes);

  std::string dir_;
  Limits limits_;
  mutable std::mutex mutex_;
  Stats stats_;
  /// Write-order LRU: front = oldest write, back = newest. Entries only
  /// (no tombstones); sizes_ is the authoritative membership set.
  std::list<std::uint64_t> lru_;
  struct IndexEntry {
    std::list<std::uint64_t>::iterator where;
    std::uint64_t bytes = 0;
  };
  std::unordered_map<std::uint64_t, IndexEntry> sizes_;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace spta::service
