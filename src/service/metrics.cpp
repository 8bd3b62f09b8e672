#include "service/metrics.hpp"

#include <sstream>

namespace spta::service {

// The latency histogram shape is the shared spec in common/histogram.hpp
// (kLatencyBin*): one definition for the service's ASCII rendering, the
// Prometheus bucket edges, and any obs-layer consumer.
ServiceMetrics::ServiceMetrics()
    : hit_latency_(MakeLatencyHistogram()),
      miss_latency_(MakeLatencyHistogram()) {}

void ServiceMetrics::CountRequest(RequestKind kind, bool ok) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++per_kind_[static_cast<int>(kind)];
  ++requests_;
  if (!ok) ++errors_;
}

void ServiceMetrics::CountBusyRejection() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++busy_rejections_;
}

void ServiceMetrics::CountDeadlineMiss() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++deadline_misses_;
}

void ServiceMetrics::RecordAnalyzeLatency(double micros, bool cache_hit) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++analyses_;
  analyze_micros_total_ += micros;
  (cache_hit ? hit_latency_ : miss_latency_).Add(micros);
}

std::uint64_t ServiceMetrics::requests_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return requests_;
}

std::uint64_t ServiceMetrics::errors_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return errors_;
}

std::uint64_t ServiceMetrics::busy_rejections() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return busy_rejections_;
}

std::uint64_t ServiceMetrics::deadline_misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return deadline_misses_;
}

Args CacheArgs(const ResultCache::Stats& cache) {
  Args args;
  args.SetUint("cache_hits", cache.hits);
  args.SetUint("cache_misses", cache.misses);
  args.SetUint("cache_evictions", cache.evictions);
  args.SetUint("cache_collisions", cache.collisions);
  args.SetUint("cache_size", cache.size);
  args.SetUint("cache_capacity", cache.capacity);
  args.SetDouble("cache_hit_ratio", cache.HitRatio());
  return args;
}

Args ServiceMetrics::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Args args;
  args.SetUint("requests_total", requests_);
  args.SetUint("errors_total", errors_);
  args.SetUint("busy_rejections", busy_rejections_);
  args.SetUint("deadline_misses", deadline_misses_);
  args.SetUint("analyses_total", analyses_);
  for (int i = 0; i < kRequestKindCount; ++i) {
    if (per_kind_[i] == 0) continue;
    args.SetUint(std::string("requests_") +
                     RequestKindName(static_cast<RequestKind>(i)),
                 per_kind_[i]);
  }
  return args;
}

std::string ServiceMetrics::Render() const {
  const Args snapshot = Snapshot();
  std::ostringstream out;
  for (const auto& [key, value] : snapshot.values()) {
    out << key << ' ' << value << '\n';
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (analyses_ > 0) {
    out << "analyze_latency_mean_us "
        << analyze_micros_total_ / static_cast<double>(analyses_) << '\n';
  }
  if (miss_latency_.total() > 0) {
    out << "cold analyze latency (us):\n" << miss_latency_.Ascii(40);
  }
  if (hit_latency_.total() > 0) {
    out << "cache-hit analyze latency (us):\n" << hit_latency_.Ascii(40);
  }
  return out.str();
}

}  // namespace spta::service
