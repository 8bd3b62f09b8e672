// Content-addressed LRU cache of finished analysis results.
//
// The service keys each analysis by a 64-bit digest of (samples, analysis
// config) — see AnalysisKey in engine.hpp — and stores the fully rendered
// response body. Identical re-submissions (same measurements, same
// options) therefore return in microseconds instead of re-running the EVT
// pipeline. Because no 64-bit digest over arbitrarily long inputs is
// injective, every entry also carries a second, independently constructed
// 64-bit verifier digest: a lookup only hits when BOTH digests match, so a
// key collision between two distinct requests is detected and served as a
// miss (and counted) instead of silently returning another request's
// pWCET result. Bounded by entry count with least-recently-used eviction;
// hit/miss/collision/eviction accounting feeds the metrics surface.
//
// Bodies are immutable and shared (std::shared_ptr<const std::string>): a
// lookup hands out the stored bytes without copying them, and the fleet's
// warm memo keeps a reference instead of a second copy.
//
// Thread-safe: one mutex around the map+list (lookups are O(1) and the
// stored bodies are small compared to an analysis, so a single lock is not
// a bottleneck even under a full worker pool).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace spta::service {

class ResultCache {
 public:
  using Body = std::shared_ptr<const std::string>;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Lookups whose key matched but whose verifier did not: a detected
    /// 64-bit key collision between distinct requests (served as a miss).
    std::uint64_t collisions = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;

    /// hits / (hits + misses); 0 when no lookups happened.
    double HitRatio() const;
  };

  /// Requires capacity >= 1.
  explicit ResultCache(std::size_t capacity);

  /// Returns the cached body and refreshes recency when both `key` and
  /// `verifier` match, or null on a miss. A key match with a verifier
  /// mismatch is a detected collision: counted as a miss (plus the
  /// collision counter), never served. Every call counts as exactly one
  /// hit or one miss.
  Body Lookup(std::uint64_t key, std::uint64_t verifier);

  /// Inserts (or refreshes) `key`; evicts the least-recently-used entry
  /// when at capacity. An existing entry with a different verifier (a
  /// colliding key) is overwritten — latest result wins. Does not touch
  /// the hit/miss counters.
  void Insert(std::uint64_t key, std::uint64_t verifier, Body body);

  Stats stats() const;

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t verifier = 0;
    Body body;
  };

  mutable std::mutex mutex_;
  std::size_t capacity_;
  /// Front = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<std::uint64_t, decltype(lru_)::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t collisions_ = 0;
};

}  // namespace spta::service
