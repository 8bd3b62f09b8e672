#include "service/server.hpp"

#include <chrono>
#include <cstdio>
#include <thread>

#include "analysis/sample_io.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"

namespace spta::service {
namespace {

using Clock = std::chrono::steady_clock;

std::string KeyHex(std::uint64_t key) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(key));
  return buffer;
}

Args AnalysisArgs(const AnalysisOutcome& outcome, double micros) {
  Args args = outcome.result;
  args.Set("cache", outcome.cache_hit ? "hit" : "miss");
  args.Set("key", KeyHex(outcome.key));
  args.SetDouble("analyze_us", micros);
  return args;
}

Args StatusArgs(const SessionStatus& status) {
  Args args;
  args.SetUint("total", status.total_samples);
  args.SetUint("converged", status.converged ? 1 : 0);
  args.SetUint("runs_required", status.runs_required);
  args.SetUint("next_checkpoint", status.next_checkpoint);
  return args;
}

}  // namespace

Server::Server(ServerOptions options, AnalysisEngine& engine)
    : options_(options),
      sessions_(options.convergence, options.session_limits),
      engine_(engine) {}

bool Server::CollectObservations(
    const Request& request, std::vector<mbpta::PathObservation>* observations,
    std::string* error) {
  const std::string session = request.args.GetString("session");
  if (!session.empty()) {
    return sessions_.Snapshot(session, observations, error);
  }
  if (request.payload.empty()) {
    *error = "ANALYZE needs session= or an inline sample payload";
    return false;
  }
  if (!analysis::TryReadSamplesCsv(request.payload, observations, nullptr,
                                   error)) {
    return false;
  }
  if (request.args.Has("count") &&
      request.args.GetUint("count", 0) != observations->size()) {
    *error = "payload sample count " + std::to_string(observations->size()) +
             " does not match count=" + request.args.GetString("count");
    return false;
  }
  return true;
}

Response Server::RunAnalysis(const Request& request,
                             std::vector<mbpta::PathObservation> observations,
                             ResultCache::Body* analysis_body) {
  if (options_.enable_debug_hooks && request.args.Has("debug_sleep_ms")) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        request.args.GetDouble("debug_sleep_ms", 0.0)));
  }
  const auto start = Clock::now();
  SPTA_OBS_SPAN_ARG("service", "analyze", "n", observations.size());
  AnalysisOutcome outcome;
  std::string error;
  if (!engine_.Analyze(observations, AnalysisConfig::FromArgs(request.args),
                       &outcome, &error)) {
    return ErrResponse("analysis", error);
  }
  const double micros =
      std::chrono::duration<double, std::micro>(Clock::now() - start).count();
  metrics_.RecordAnalyzeLatency(micros, outcome.cache_hit);
  if (analysis_body != nullptr) *analysis_body = outcome.body;
  return OkResponse(AnalysisArgs(outcome, micros), std::move(outcome.report));
}

Response Server::HandleOpen(const Request& request) {
  std::string error;
  if (!sessions_.Open(request.args.GetString("session"), &error)) {
    return ErrResponse("session", error);
  }
  Args args;
  args.Set("session", request.args.GetString("session"));
  args.Set("state", "ingest");
  return OkResponse(std::move(args));
}

Response Server::HandleAppend(const Request& request) {
  std::vector<mbpta::PathObservation> chunk;
  std::string error;
  if (!analysis::TryReadSamplesCsv(request.payload, &chunk, nullptr,
                                   &error)) {
    return ErrResponse("samples", error);
  }
  if (request.args.Has("count") &&
      request.args.GetUint("count", 0) != chunk.size()) {
    return ErrResponse("samples",
                       "payload sample count " + std::to_string(chunk.size()) +
                           " does not match count=" +
                           request.args.GetString("count"));
  }
  SessionStatus status;
  if (!sessions_.Append(request.args.GetString("session"), chunk, &status,
                        &error)) {
    return ErrResponse("session", error);
  }
  return OkResponse(StatusArgs(status));
}

Response Server::HandleStatus(const Request& request) {
  SessionStatus status;
  std::string error;
  if (!sessions_.Status(request.args.GetString("session"), &status, &error)) {
    return ErrResponse("session", error);
  }
  return OkResponse(StatusArgs(status));
}

Response Server::HandleClose(const Request& request) {
  std::string error;
  if (!sessions_.Close(request.args.GetString("session"), &error)) {
    return ErrResponse("session", error);
  }
  return OkResponse();
}

Response Server::Dispatch(const Request& request,
                          ResultCache::Body* analysis_body) {
  switch (request.kind) {
    case RequestKind::kPing: {
      Args args;
      args.Set("proto", "spta1");
      return OkResponse(std::move(args));
    }
    case RequestKind::kOpen:
      return HandleOpen(request);
    case RequestKind::kAppend:
      return HandleAppend(request);
    case RequestKind::kStatus:
      return HandleStatus(request);
    case RequestKind::kClose:
      return HandleClose(request);
    case RequestKind::kAnalyze:
      break;
    default:
      return ErrResponse("internal",
                         std::string(RequestKindName(request.kind)) +
                             " is handled by the transport");
  }
  std::vector<mbpta::PathObservation> observations;
  std::string collect_error;
  if (!CollectObservations(request, &observations, &collect_error)) {
    return ErrResponse("samples", collect_error);
  }
  return RunAnalysis(request, std::move(observations), analysis_body);
}

Response Server::Execute(const Request& request,
                         ResultCache::Body* analysis_body) {
  // The event loop parsed the wire context into the request; installing
  // it here links every span below (verb, analyze, engine stages) into
  // the client's tree.
  obs::ScopedTraceContext trace_scope(request.trace);
  SPTA_OBS_SPAN("service", RequestKindName(request.kind));
  // A shard thread must never die on untrusted input.
  Response response;
  try {
    response = Dispatch(request, analysis_body);
  } catch (const std::exception& e) {
    response = ErrResponse("internal", e.what());
  } catch (...) {
    response = ErrResponse("internal", "unknown analysis failure");
  }
  metrics_.CountRequest(request.kind, response.ok);
  return response;
}

}  // namespace spta::service
