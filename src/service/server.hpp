// spta_serve's per-shard executor.
//
// One Server owns the state a shard executes against — SessionManager and
// ServiceMetrics — and runs one request at a time through Execute(). Its
// AnalysisEngine (with the result cache) is borrowed: every shard of a
// fleet shares the fleet's one engine. It has no transport: the
// ShardedServer event loop (sharded_server.hpp) owns the listeners,
// framing, response ordering, backpressure, SHUTDOWN and the verbs it
// answers without a shard (HEALTH, METRICS, METRICS_PROM, TRACE).
//
// Request discipline inside a shard:
//   * Session mutations (OPEN/APPEND/CLOSE) apply in the order the shard
//     receives them; routing sends a session's whole life to one shard in
//     stream order, so the convergence criterion (defined over the
//     time-ordered sample) sees the history as the client sent it.
//   * ANALYZE snapshots its samples at execution time, so an analysis sees
//     exactly the appends that preceded it on its session. Deadlines are
//     the event loop's: it sheds at admission and expires in the queue.
//   * Every shard shares the engine's result cache (engine.hpp): an analysis
//     that finds its key there answers cache=hit. Two shards given the same
//     key at once may both compute; ordering identical requests is the
//     fleet's route (sharded_server.hpp), not the engine's.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/engine.hpp"
#include "service/metrics.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"

namespace spta::service {

struct ServerOptions {
  mbpta::ConvergenceOptions convergence;
  SessionLimits session_limits;
  /// Honors the debug_sleep_ms ANALYZE argument (tests/bench only: lets a
  /// test hold a shard busy to exercise backpressure deterministically).
  bool enable_debug_hooks = false;
};

class Server {
 public:
  /// `engine` must outlive the Server; other Servers may share it.
  Server(ServerOptions options, AnalysisEngine& engine);

  /// Executes one request synchronously on the caller's thread and counts
  /// it into the metrics. Never throws and never aborts on untrusted input.
  /// SHUTDOWN and the loop-answered verbs belong to the transport and are
  /// answered ERR internal here. After an analysis, `analysis_body` (when
  /// given) holds the engine's cached body that the response's payload
  /// was decoded from.
  Response Execute(const Request& request,
                   ResultCache::Body* analysis_body = nullptr);

  SessionManager& sessions() { return sessions_; }
  ServiceMetrics& metrics() { return metrics_; }

 private:
  Response Dispatch(const Request& request, ResultCache::Body* analysis_body);
  Response HandleOpen(const Request& request);
  Response HandleAppend(const Request& request);
  Response HandleStatus(const Request& request);
  Response HandleClose(const Request& request);
  Response RunAnalysis(const Request& request,
                       std::vector<mbpta::PathObservation> observations,
                       ResultCache::Body* analysis_body);

  /// Parses the request's sample source: inline payload or session
  /// snapshot. False → `error` is the ERR message.
  bool CollectObservations(const Request& request,
                           std::vector<mbpta::PathObservation>* observations,
                           std::string* error);

  ServerOptions options_;
  SessionManager sessions_;
  AnalysisEngine& engine_;
  ServiceMetrics metrics_;
};

}  // namespace spta::service
