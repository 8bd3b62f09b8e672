// spta_client — command-line client for a running spta_serve daemon.
//
// Every command targets the daemon with exactly one of:
//   --socket PATH       AF_UNIX listener (spta_serve --socket)
//   --tcp HOST:PORT     TCP listener (spta_serve --tcp)
//
//   spta_client ping     --socket PATH
//   spta_client analyze  --socket PATH --input samples.csv
//                        [--prob P] [--per-path] [--block-size B]
//                        [--deadline-ms D]
//       One-shot analysis of a CSV sample (inline submission; identical
//       resubmissions hit the server's result cache).
//
//   spta_client session  --socket PATH --input samples.csv [--name NAME]
//                        [--chunk N] [--prob P] [--per-path]
//       Streaming ingestion: opens a session, appends the sample in
//       chunks (default 250), reporting the convergence status after each
//       chunk, then requests the analysis and closes the session.
//
//   spta_client metrics  --socket PATH [--metrics-prom]
//       Dumps the daemon's metrics surface; --metrics-prom asks for the
//       Prometheus text exposition instead (METRICS_PROM verb) and prints
//       the raw scrape body, so a cron job piping to a textfile collector
//       needs no custom speaker of the spta1 protocol.
//   spta_client health   --socket PATH
//       Readiness probe (HEALTH verb): status=ok|degraded plus fleet
//       args and per-shard readiness lines — answered off the event
//       loop, so it stays honest while the shards are saturated.
//   spta_client trace    --socket PATH
//       Prints the daemon's live Chrome trace JSON export (TRACE verb)
//       on stdout — load it in chrome://tracing or Perfetto, or merge
//       with other exports via spta_cli trace-view --merge.
//   spta_client shutdown --socket PATH
//       Graceful drain: the daemon answers every accepted request, then
//       exits.
//
// Distributed tracing (docs/OBSERVABILITY.md): --trace-out FILE mints a
// root trace context for the invocation, stamps it on every request
// frame (the server's spans link under it), records the client's own
// spans — connect, per-attempt round trips, backoff waits — and exports
// them as Chrome trace JSON to FILE at exit.
//
// Resilience flags (all commands):
//   --retries N        total attempts incl. the first (default 4; 1 = off)
//   --retry-base-ms B  decorrelated-jitter base delay   (default 25)
//   --retry-cap-ms C   decorrelated-jitter delay cap    (default 2000)
//   --retry-seed S     jitter stream seed — replayable  (default 1)
//   --timeout-ms T     per-attempt I/O deadline (SO_RCVTIMEO/SO_SNDTIMEO);
//                      0 = wait forever (default)
// Retryable failures — connect errors, ERR transport (stream died
// mid-exchange), ERR deadline, and ERR busy (bounded-queue backpressure)
// — are reattempted on a fresh connection after a decorrelated-jitter
// sleep (docs/FAULTS.md). Everything else fails immediately.
//
// When an ERR busy carries a retry_after_ms hint (admission-control shed
// or queue-full backpressure from a sharded fleet), the sleep is
// max(hint, jitter) clamped to --retry-cap-ms: the server's estimate can
// only lengthen the wait, the seeded jitter stream still advances
// identically (replayability), and the cap keeps a confused server from
// parking the client. Hinted and blind waits are counted separately and
// summarized on stderr at exit.
//
// Exit code: 0 on OK (for analyze: also requires usable=1), 1 on an
// unusable analysis, 2 on transport/usage/permanent errors, 3 when the
// daemon was still ERR-busy after all retries (back off and rerun later —
// the request itself is fine).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "analysis/sample_io.hpp"
#include "common/flags.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "service/client.hpp"
#include "service/retry.hpp"

namespace {

using namespace spta;

constexpr int kExitBusy = 3;

/// --trace-out: client-side distributed tracing for one invocation.
/// Enables the tracer, mints the root trace context (every frame the
/// Client sends carries it, so server spans link under this client), and
/// exports the client's own spans — connect, per-attempt round trips,
/// backoff waits — as Chrome trace JSON at exit. Inert when `path` is
/// empty: spans compile to enabled-flag checks that stay false.
class ClientTraceSession {
 public:
  ClientTraceSession(std::string path, const std::string& command)
      : path_(std::move(path)) {
    if (path_.empty()) return;
    obs::Tracer::Instance().Enable();
    scope_.emplace(obs::MintTraceContext());
    root_.emplace("client", command == "analyze"  ? "analyze"
                            : command == "session" ? "session"
                                                   : "request");
  }

  ~ClientTraceSession() {
    root_.reset();  // Close the root span before exporting.
    if (path_.empty()) return;
    std::string error;
    if (!obs::Tracer::Instance().WriteChromeTraceFile(path_, &error)) {
      std::fprintf(stderr, "spta_client: trace export failed: %s\n",
                   error.c_str());
    }
  }

  ClientTraceSession(const ClientTraceSession&) = delete;
  ClientTraceSession& operator=(const ClientTraceSession&) = delete;

 private:
  std::string path_;
  std::optional<obs::ScopedTraceContext> scope_;
  std::optional<obs::ScopedSpan> root_;
};

/// Backoff bookkeeping: how many sleeps were sized by a server
/// retry_after_ms hint versus blind jitter. Summarized at exit.
std::uint64_t g_hint_waits = 0;
std::uint64_t g_blind_waits = 0;

/// The sleep before the next attempt. The jitter schedule ALWAYS advances
/// (same seed → same schedule, hints present or not); a server hint can
/// only lengthen the result, and the policy cap bounds both.
std::chrono::milliseconds NextBackoff(const service::Response& response,
                                      service::RetrySchedule* schedule,
                                      const service::RetryPolicy& policy) {
  const std::chrono::milliseconds blind = schedule->NextDelay();
  const std::uint64_t hint = response.args.GetUint("retry_after_ms", 0);
  if (hint == 0) {
    ++g_blind_waits;
    return blind;
  }
  ++g_hint_waits;
  const auto hinted = std::chrono::milliseconds(
      static_cast<std::chrono::milliseconds::rep>(hint));
  return std::min(policy.cap, std::max(hinted, blind));
}

void PrintBackoffSummary() {
  if (g_hint_waits + g_blind_waits == 0) return;
  std::fprintf(stderr,
               "spta_client: backoff waits: %llu hinted (retry_after_ms), "
               "%llu blind\n",
               static_cast<unsigned long long>(g_hint_waits),
               static_cast<unsigned long long>(g_blind_waits));
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: spta_client "
      "<ping|analyze|session|metrics|health|trace|shutdown> "
      "(--socket PATH | --tcp HOST:PORT) [flags]\n"
      "  analyze  --input FILE [--prob P] [--per-path] [--block-size B] "
      "[--deadline-ms D]\n"
      "  session  --input FILE [--name NAME] [--chunk N] [--prob P] "
      "[--per-path]\n"
      "  metrics  [--metrics-prom]  (Prometheus text format)\n"
      "  health   (readiness: status=ok|degraded + per-shard lines)\n"
      "  trace    (server's Chrome trace JSON export on stdout)\n"
      "  common   [--retries N] [--retry-base-ms B] [--retry-cap-ms C] "
      "[--retry-seed S] [--timeout-ms T] [--trace-out FILE]\n");
  return 2;
}

std::vector<mbpta::PathObservation> LoadSamples(const Flags& flags) {
  const std::string input = flags.GetString("input");
  std::ostringstream text;
  if (input.empty() || input == "-") {
    text << std::cin.rdbuf();
  } else {
    std::ifstream in(input, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "spta_client: cannot open '%s'\n", input.c_str());
      std::exit(2);
    }
    text << in.rdbuf();
  }
  std::vector<mbpta::PathObservation> observations;
  std::string error;
  if (!analysis::TryReadSamplesCsv(text.str(), &observations, nullptr,
                                   &error)) {
    std::fprintf(stderr, "spta_client: %s\n", error.c_str());
    std::exit(2);
  }
  return observations;
}

service::Args AnalysisOptions(const Flags& flags) {
  service::Args options;
  if (flags.Has("prob")) options.SetDouble("prob", flags.GetDouble("prob", 1e-12));
  if (flags.Has("block-size")) {
    options.SetUint("block_size",
                    static_cast<std::uint64_t>(flags.GetInt("block-size", 0)));
  }
  if (flags.GetBool("per-path")) options.Set("per_path", "1");
  if (flags.Has("deadline-ms")) {
    options.SetDouble("deadline_ms", flags.GetDouble("deadline-ms", 0.0));
  }
  return options;
}

service::RetryPolicy PolicyFromFlags(const Flags& flags) {
  service::RetryPolicy policy;
  policy.max_attempts = static_cast<int>(flags.GetInt("retries", 4));
  policy.base = std::chrono::milliseconds(flags.GetInt("retry-base-ms", 25));
  policy.cap = std::chrono::milliseconds(flags.GetInt("retry-cap-ms", 2000));
  policy.seed = static_cast<std::uint64_t>(flags.GetInt("retry-seed", 1));
  if (policy.max_attempts < 1 || policy.base.count() < 0 ||
      policy.cap.count() < policy.base.count()) {
    std::fprintf(stderr,
                 "spta_client: need --retries >= 1 and "
                 "0 <= --retry-base-ms <= --retry-cap-ms\n");
    std::exit(2);
  }
  return policy;
}

/// Prints a response's args and payload; returns the command exit code.
/// ERR busy gets its own code so callers/scripts can distinguish "the
/// daemon is saturated, resubmit later" from permanent failures.
int Report(const service::Response& response) {
  if (!response.ok) {
    const std::string code = response.args.GetString("code", "?");
    std::fprintf(stderr, "spta_client: ERR %s: %s\n", code.c_str(),
                 response.payload.c_str());
    return code == "busy" ? kExitBusy : 2;
  }
  const std::string args = response.args.Encode();
  if (!args.empty()) std::printf("%s\n", args.c_str());
  if (!response.payload.empty()) std::fputs(response.payload.c_str(), stdout);
  return response.args.Has("usable") &&
                 response.args.GetUint("usable", 0) == 0
             ? 1
             : 0;
}

int RunSession(service::Client& client, const Flags& flags,
               const std::vector<mbpta::PathObservation>& observations,
               service::RetrySchedule* schedule,
               const service::RetryPolicy& policy) {
  const int max_attempts = policy.max_attempts;
  const std::string name = flags.GetString("name", "cli");
  const std::size_t chunk =
      static_cast<std::size_t>(flags.GetInt("chunk", 250));
  if (chunk == 0) {
    std::fprintf(stderr, "spta_client: --chunk must be >= 1\n");
    return 2;
  }
  auto response = client.Open(name);
  if (!response.ok) return Report(response);
  for (std::size_t offset = 0; offset < observations.size();
       offset += chunk) {
    const std::size_t n = std::min(chunk, observations.size() - offset);
    response = client.Append(
        name, std::span(observations).subspan(offset, n));
    if (!response.ok) return Report(response);
    std::fprintf(stderr,
                 "spta_client: appended %zu/%zu samples, converged=%s\n",
                 offset + n, observations.size(),
                 response.args.GetString("converged", "0").c_str());
    if (response.args.GetUint("converged", 0) == 1) {
      std::fprintf(stderr,
                   "spta_client: convergence criterion met at %s runs\n",
                   response.args.GetString("runs_required", "?").c_str());
    }
  }
  // The session holds the ingested sample server-side, so an ERR busy on
  // the final ANALYZE is retried in place — no re-ingestion needed.
  for (int attempt = 1;; ++attempt) {
    response = client.AnalyzeSession(name, AnalysisOptions(flags));
    if (response.ok ||
        response.args.GetString("code", "") != "busy" ||
        attempt >= max_attempts) {
      break;
    }
    const auto delay = NextBackoff(response, schedule, policy);
    std::fprintf(stderr,
                 "spta_client: daemon busy, retrying analyze in %lld ms "
                 "(attempt %d/%d)\n",
                 static_cast<long long>(delay.count()), attempt,
                 max_attempts);
    {
      obs::ScopedSpan backoff_span(
          "client", "backoff", "delay_ms",
          static_cast<std::uint64_t>(delay.count()));
      std::this_thread::sleep_for(delay);
    }
  }
  const int code = Report(response);
  client.Close(name);
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Flags flags(argc - 1, argv + 1);
  const std::string socket_path = flags.GetString("socket");
  const std::string tcp_target = flags.GetString("tcp");
  if (socket_path.empty() == tcp_target.empty()) return Usage();
  std::string tcp_host;
  std::uint16_t tcp_port = 0;
  if (!tcp_target.empty()) {
    const std::size_t colon = tcp_target.rfind(':');
    long long port = -1;
    if (colon != std::string::npos) {
      char* end = nullptr;
      port = std::strtoll(tcp_target.c_str() + colon + 1, &end, 10);
      if (end == tcp_target.c_str() + colon + 1 || *end != '\0') port = -1;
    }
    if (colon == std::string::npos || colon == 0 || port < 1 ||
        port > 65535) {
      std::fprintf(stderr, "spta_client: --tcp expects HOST:PORT, got '%s'\n",
                   tcp_target.c_str());
      return 2;
    }
    tcp_host = tcp_target.substr(0, colon);
    tcp_port = static_cast<std::uint16_t>(port);
  }
  if (command != "ping" && command != "analyze" && command != "session" &&
      command != "metrics" && command != "health" && command != "trace" &&
      command != "shutdown") {
    std::fprintf(stderr, "spta_client: unknown command '%s'\n",
                 command.c_str());
    return Usage();
  }

  // Load the sample before the first connect so a bad --input fails fast
  // and every retry attempt resends identical bytes.
  std::vector<mbpta::PathObservation> observations;
  if (command == "analyze" || command == "session") {
    observations = LoadSamples(flags);
  }

  const service::RetryPolicy policy = PolicyFromFlags(flags);
  service::RetrySchedule schedule(policy);
  const double timeout_ms = flags.GetDouble("timeout-ms", 0.0);

  // --trace-out roots the distributed trace here: every request frame
  // below carries the minted trace id, and the client's own spans land in
  // the export for spta_cli trace-view --merge to stitch with the
  // server side.
  ClientTraceSession trace_session(flags.GetString("trace-out"), command);

  int exit_code = 2;
  for (int attempt = 1;; ++attempt) {
    obs::ScopedSpan attempt_span("client", "attempt", "attempt",
                                 static_cast<std::uint64_t>(attempt));
    // Fresh connection per attempt: after a transport fault (short write,
    // mid-frame disconnect, injected or real) the old stream's framing
    // state is unusable.
    std::string error;
    service::Response response;
    std::unique_ptr<service::Client> client;
    {
      obs::ScopedSpan connect_span("client", "connect");
      client = tcp_target.empty()
                   ? service::Client::ConnectUnix(socket_path, &error,
                                                  timeout_ms)
                   : service::Client::ConnectTcp(tcp_host, tcp_port, &error,
                                                 timeout_ms);
    }
    if (client == nullptr) {
      response = service::ErrResponse("transport", error);
    } else if (command == "ping") {
      response = client->Ping();
    } else if (command == "analyze") {
      response = client->AnalyzeInline(observations, AnalysisOptions(flags));
    } else if (command == "session") {
      // Session mode handles its own busy-retry (the ingested sample
      // lives server-side); only connect/transport failures reach the
      // outer loop via the returned code.
      exit_code = RunSession(*client, flags, observations, &schedule, policy);
      PrintBackoffSummary();
      return exit_code;
    } else if (command == "metrics") {
      if (flags.GetBool("metrics-prom")) {
        response = client->MetricsProm();
        if (response.ok) {
          // Raw scrape body only: args (format=...) would corrupt the
          // Prometheus text format for a piping consumer.
          std::fputs(response.payload.c_str(), stdout);
          return 0;
        }
      } else {
        response = client->Metrics();
      }
    } else if (command == "health") {
      response = client->Health();
    } else if (command == "trace") {
      response = client->Trace();
      if (response.ok) {
        // Raw JSON body only (like --metrics-prom): args would corrupt
        // the document for a piping consumer.
        std::fputs(response.payload.c_str(), stdout);
        return 0;
      }
    } else {  // shutdown
      response = client->Shutdown();
    }

    const std::string code =
        response.ok ? "" : response.args.GetString("code", "");
    if (response.ok || !service::RetryableErrCode(code) ||
        attempt >= policy.max_attempts) {
      exit_code = Report(response);
      break;
    }
    const auto delay = NextBackoff(response, &schedule, policy);
    std::fprintf(stderr,
                 "spta_client: attempt %d/%d failed (ERR %s), retrying in "
                 "%lld ms\n",
                 attempt, policy.max_attempts, code.c_str(),
                 static_cast<long long>(delay.count()));
    {
      obs::ScopedSpan backoff_span(
          "client", "backoff", "delay_ms",
          static_cast<std::uint64_t>(delay.count()));
      std::this_thread::sleep_for(delay);
    }
  }
  PrintBackoffSummary();
  return exit_code;
}
