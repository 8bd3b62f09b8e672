#include "service/metrics.hpp"

#include <sstream>

#include "obs/atlas_counters.hpp"
#include "obs/prometheus.hpp"

namespace spta::service {

// The latency histogram shape is the shared spec in common/histogram.hpp
// (kLatencyBin*): one definition for the service's ASCII rendering, the
// Prometheus bucket edges, and any obs-layer consumer.
ServiceMetrics::ServiceMetrics()
    : hit_latency_(MakeLatencyHistogram()),
      miss_latency_(MakeLatencyHistogram()),
      queue_wait_(MakeLatencyHistogram()) {}

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

void ServiceMetrics::CountProtocolError() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++protocol_errors_;
}

void ServiceMetrics::CountInjectedFaults(std::uint64_t n) {
  if (n == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  faults_injected_ += n;
}

void ServiceMetrics::CountDegradedSession() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++sessions_degraded_;
}

void ServiceMetrics::RecordAnalyzeLatency(double micros, bool cache_hit) {
  const std::uint64_t trace_id = obs::CurrentTraceContext().trace_id;
  std::lock_guard<std::mutex> lock(mutex_);
  ++analyses_;
  analyze_micros_total_ += micros;
  (cache_hit ? hit_micros_total_ : miss_micros_total_) += micros;
  (cache_hit ? hit_latency_ : miss_latency_).Add(micros);
  if (trace_id != 0) {
    (cache_hit ? hit_exemplar_ : miss_exemplar_) = {trace_id, micros};
  }
}

void ServiceMetrics::RecordQueueWait(double micros) {
  const std::uint64_t trace_id = obs::CurrentTraceContext().trace_id;
  std::lock_guard<std::mutex> lock(mutex_);
  ++queue_waits_;
  queue_wait_micros_total_ += micros;
  queue_wait_.Add(micros);
  if (trace_id != 0) queue_exemplar_ = {trace_id, micros};
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

std::uint64_t ServiceMetrics::faults_injected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return faults_injected_;
}

std::uint64_t ServiceMetrics::sessions_degraded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_degraded_;
}

Args ServiceMetrics::Snapshot(const ResultCache::Stats& cache) const {
  std::lock_guard<std::mutex> lock(mutex_);
  Args args;
  args.SetUint("requests_total", requests_);
  args.SetUint("errors_total", errors_);
  args.SetUint("busy_rejections", busy_rejections_);
  args.SetUint("deadline_misses", deadline_misses_);
  args.SetUint("protocol_errors", protocol_errors_);
  args.SetUint("faults_injected", faults_injected_);
  args.SetUint("sessions_degraded", sessions_degraded_);
  args.SetUint("analyses_total", analyses_);
  args.SetUint("queue_waits", queue_waits_);
  args.SetUint("cache_hits", cache.hits);
  args.SetUint("cache_misses", cache.misses);
  args.SetUint("cache_evictions", cache.evictions);
  args.SetUint("cache_collisions", cache.collisions);
  args.SetUint("cache_size", cache.size);
  args.SetUint("cache_capacity", cache.capacity);
  args.SetDouble("cache_hit_ratio", cache.HitRatio());
  for (int i = 0; i < kRequestKindCount; ++i) {
    if (per_kind_[i] == 0) continue;
    args.SetUint(std::string("requests_") +
                     RequestKindName(static_cast<RequestKind>(i)),
                 per_kind_[i]);
  }
  return args;
}

std::string ServiceMetrics::Render(const ResultCache::Stats& cache) const {
  const Args snapshot = Snapshot(cache);
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

std::string ServiceMetrics::RenderProm(
    const ResultCache::Stats& cache, const obs::Tracer::Stats& tracer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  obs::PromText prom;
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };

  prom.Declare("spta_requests_total", "counter",
               "Requests served, all verbs.");
  prom.Sample("spta_requests_total", u(requests_));
  prom.Declare("spta_request_errors_total", "counter",
               "Requests answered ERR.");
  prom.Sample("spta_request_errors_total", u(errors_));
  prom.Declare("spta_requests_by_verb_total", "counter",
               "Requests served, by protocol verb.");
  for (int i = 0; i < kRequestKindCount; ++i) {
    if (per_kind_[i] == 0) continue;
    prom.Sample("spta_requests_by_verb_total",
                std::string("verb=\"") +
                    RequestKindName(static_cast<RequestKind>(i)) + "\"",
                u(per_kind_[i]));
  }
  prom.Declare("spta_busy_rejections_total", "counter",
               "ANALYZE requests rejected: bounded queue full.");
  prom.Sample("spta_busy_rejections_total", u(busy_rejections_));
  prom.Declare("spta_deadline_misses_total", "counter",
               "ANALYZE requests whose deadline expired in queue.");
  prom.Sample("spta_deadline_misses_total", u(deadline_misses_));
  prom.Declare("spta_protocol_errors_total", "counter",
               "Malformed frames received.");
  prom.Sample("spta_protocol_errors_total", u(protocol_errors_));
  prom.Declare("spta_faults_injected_total", "counter",
               "I/O faults fired by the fault-injection hook.");
  prom.Sample("spta_faults_injected_total", u(faults_injected_));
  prom.Declare("spta_sessions_degraded_total", "counter",
               "Connections ended degraded under injected faults.");
  prom.Sample("spta_sessions_degraded_total", u(sessions_degraded_));
  prom.Declare("spta_analyses_total", "counter",
               "ANALYZE requests that produced a result.");
  prom.Sample("spta_analyses_total", u(analyses_));

  prom.Declare("spta_cache_hits_total", "counter", "Result-cache hits.");
  prom.Sample("spta_cache_hits_total", u(cache.hits));
  prom.Declare("spta_cache_misses_total", "counter",
               "Result-cache misses.");
  prom.Sample("spta_cache_misses_total", u(cache.misses));
  prom.Declare("spta_cache_evictions_total", "counter",
               "Result-cache LRU evictions.");
  prom.Sample("spta_cache_evictions_total", u(cache.evictions));
  prom.Declare("spta_cache_collisions_total", "counter",
               "Result-cache key collisions detected (never served).");
  prom.Sample("spta_cache_collisions_total", u(cache.collisions));
  prom.Declare("spta_cache_entries", "gauge",
               "Result-cache entries resident.");
  prom.Sample("spta_cache_entries", u(cache.size));
  prom.Declare("spta_cache_capacity", "gauge",
               "Result-cache capacity (entries).");
  prom.Sample("spta_cache_capacity", u(cache.capacity));

  // Latencies in seconds (Prometheus base unit); the bins are the shared
  // microsecond spec scaled by 1e-6.
  prom.Declare("spta_analyze_latency_seconds", "histogram",
               "ANALYZE service time, split by result-cache outcome.");
  prom.HistogramSeries("spta_analyze_latency_seconds", "cache=\"hit\"",
                       hit_latency_, 1e-6, hit_micros_total_ * 1e-6);
  prom.Exemplar(hit_exemplar_.trace_id, hit_exemplar_.micros * 1e-6);
  prom.HistogramSeries("spta_analyze_latency_seconds", "cache=\"miss\"",
                       miss_latency_, 1e-6, miss_micros_total_ * 1e-6);
  prom.Exemplar(miss_exemplar_.trace_id, miss_exemplar_.micros * 1e-6);
  prom.Declare("spta_queue_wait_seconds", "histogram",
               "ANALYZE time spent queued before a worker picked it up.");
  prom.HistogramSeries("spta_queue_wait_seconds", "", queue_wait_, 1e-6,
                       queue_wait_micros_total_ * 1e-6);
  prom.Exemplar(queue_exemplar_.trace_id, queue_exemplar_.micros * 1e-6);

  // Atlas container counters: process-wide atomics fed by the trace
  // pack/unpack paths.
  const obs::AtlasCountersSnapshot atlas = obs::AtlasCounters();
  prom.Declare("spta_atlas_traces_packed_total", "counter",
               "Atlas trace containers written.");
  prom.Sample("spta_atlas_traces_packed_total", u(atlas.traces_packed));
  prom.Declare("spta_atlas_traces_unpacked_total", "counter",
               "Atlas trace containers decoded.");
  prom.Sample("spta_atlas_traces_unpacked_total", u(atlas.traces_unpacked));

  prom.Declare("spta_obs_trace_events_recorded_total", "counter",
               "Trace events retained in the in-process ring buffers.");
  prom.Sample("spta_obs_trace_events_recorded_total", u(tracer.recorded));
  prom.Declare("spta_obs_trace_events_dropped_total", "counter",
               "Trace events dropped by full ring buffers.");
  prom.Sample("spta_obs_trace_events_dropped_total", u(tracer.dropped));
  prom.Declare("spta_obs_trace_threads", "gauge",
               "Threads that have recorded trace events.");
  prom.Sample("spta_obs_trace_threads", u(tracer.threads));
  return prom.str();
}

}  // namespace spta::service
