// Per-shard service observability: request counters, rejection counters
// and latency histograms, summed into the fleet's METRICS answer
// (ShardedServer), which also carries each shard's Render() text and,
// once, the counters of the result cache the shards share.
//
// All counters are monotonic since process start. Latency is recorded in
// microseconds into fixed-bin histograms sharing the common/histogram
// latency bin spec (kLatencyBin*): one for cache-hit analyses, one for
// cache misses — the spread between the two IS the amortization story the
// service exists to tell.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "common/histogram.hpp"
#include "service/protocol.hpp"
#include "service/result_cache.hpp"

namespace spta::service {

/// A result cache's counters as METRICS args: cache_capacity,
/// cache_collisions, cache_evictions, cache_hit_ratio, cache_hits,
/// cache_misses, cache_size. The fleet reports its one engine's cache
/// this way, next to the shards' summed Snapshot() keys.
Args CacheArgs(const ResultCache::Stats& cache);

class ServiceMetrics {
 public:
  ServiceMetrics();

  /// Counts one finished request of `kind` (ok = the response was OK).
  void CountRequest(RequestKind kind, bool ok);

  /// Counts an ANALYZE rejected because the bounded queue was full.
  void CountBusyRejection();

  /// Counts an ANALYZE rejected because its deadline expired in queue.
  void CountDeadlineMiss();

  /// Records the wall-clock service time of one ANALYZE.
  void RecordAnalyzeLatency(double micros, bool cache_hit);

  std::uint64_t requests_total() const;
  std::uint64_t errors_total() const;
  std::uint64_t busy_rejections() const;
  std::uint64_t deadline_misses() const;

  /// Renders the whole surface as stable `key value` lines followed by
  /// the latency histograms in ASCII. Line order is pinned: the Snapshot()
  /// keys in Snapshot's documented order, then `analyze_latency_mean_us`
  /// (when analyses ran), then the cold and cache-hit ASCII histograms.
  /// Golden-tested in service_test.
  std::string Render() const;

  /// Key/value subset of Render() for machine consumption in a response
  /// args block.
  ///
  /// Key order contract (golden-tested; scrapers and dashboards may rely
  /// on it): Args encodes via std::map, so keys iterate in byte-wise
  /// lexicographic order —
  ///   analyses_total, busy_rejections, deadline_misses, errors_total,
  ///   requests_<VERB>*, requests_total
  /// (* = requests_<VERB> keys appear only for verbs with a nonzero count,
  /// themselves in lexicographic order, and all sort before requests_total
  /// because verb names are upper-case.) In the fleet's METRICS args the
  /// CacheArgs keys sort in between busy_rejections and deadline_misses.
  /// Adding a key is allowed; reordering or renaming existing keys is a
  /// breaking change to the wire surface.
  Args Snapshot() const;

 private:

  mutable std::mutex mutex_;
  std::uint64_t per_kind_[kRequestKindCount] = {};
  std::uint64_t requests_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t busy_rejections_ = 0;
  std::uint64_t deadline_misses_ = 0;
  std::uint64_t analyses_ = 0;
  double analyze_micros_total_ = 0.0;
  Histogram hit_latency_;   ///< Cache-hit ANALYZE latency (us).
  Histogram miss_latency_;  ///< Cold ANALYZE latency (us).
};

}  // namespace spta::service
