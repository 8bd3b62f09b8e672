#include "service/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <thread>

#include "analysis/sample_io.hpp"
#include "atlas/format.hpp"
#include "atlas/mine.hpp"
#include "obs/trace.hpp"
#include "service/fd_stream.hpp"

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

void Server::OrderedWriter::Expect(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  expected_ = id + 1;
}

void Server::OrderedWriter::Complete(std::uint64_t id, Response response) {
  std::lock_guard<std::mutex> lock(mutex_);
  ready_.emplace(id, std::move(response));
  while (!ready_.empty() && ready_.begin()->first == next_write_) {
    SPTA_OBS_SPAN_ARG("service", "respond", "id", ready_.begin()->first);
    WriteResponse(out_, ready_.begin()->second);
    ready_.erase(ready_.begin());
    ++next_write_;
  }
  if (next_write_ == expected_) all_written_.notify_all();
}

void Server::OrderedWriter::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_written_.wait(lock, [&] { return next_write_ == expected_; });
}

Server::Server(ServerOptions options)
    : options_(options),
      sessions_(options.convergence, options.session_limits),
      engine_(options.cache_capacity),
      pool_(options.workers) {
  if (!options_.cache_dir.empty()) {
    PersistentResultCache::Limits limits;
    limits.max_bytes = options_.cache_max_bytes;
    limits.quota_bytes = options_.cache_quota_bytes;
    store_ = std::make_unique<PersistentResultCache>(options_.cache_dir,
                                                    limits);
    // Warm-start: preload before attaching, so the preload itself does
    // not rewrite every file it just read.
    store_->LoadAll([this](std::uint64_t key, std::uint64_t verifier,
                           std::string body) {
      engine_.cache().Insert(key, verifier, std::move(body));
    });
    engine_.AttachStore(store_.get());
  }
}

bool Server::TryAcquireAnalyzeSlot() {
  std::lock_guard<std::mutex> lock(slots_mutex_);
  if (analyses_in_flight_ >= options_.queue_capacity) return false;
  ++analyses_in_flight_;
  return true;
}

void Server::ReleaseAnalyzeSlot() {
  std::lock_guard<std::mutex> lock(slots_mutex_);
  --analyses_in_flight_;
}

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
  std::istringstream payload(request.payload);
  if (!analysis::TryReadSamplesCsv(payload, observations, error)) {
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

Response Server::RunAnalysis(
    const Request& request, std::vector<mbpta::PathObservation> observations,
    Clock::time_point deadline, bool has_deadline,
    std::shared_ptr<AnalysisEngine::Ticket> ticket) {
  if (has_deadline && Clock::now() > deadline) {
    metrics_.CountDeadlineMiss();
    return ErrResponse("deadline", "deadline expired before execution");
  }
  if (options_.enable_debug_hooks && request.args.Has("debug_sleep_ms")) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        request.args.GetDouble("debug_sleep_ms", 0.0)));
  }
  const auto start = Clock::now();
  SPTA_OBS_SPAN_ARG("service", "analyze", "n", observations.size());
  AnalysisOutcome outcome;
  std::string error;
  if (!engine_.Analyze(observations, AnalysisConfig::FromArgs(request.args),
                       &outcome, &error, std::move(ticket))) {
    return ErrResponse("analysis", error);
  }
  const double micros =
      std::chrono::duration<double, std::micro>(Clock::now() - start).count();
  metrics_.RecordAnalyzeLatency(micros, outcome.cache_hit);
  return OkResponse(AnalysisArgs(outcome, micros), outcome.report);
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
  std::istringstream payload(request.payload);
  if (!analysis::TryReadSamplesCsv(payload, &chunk, &error)) {
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

Response Server::HandleIngest(const Request& request) {
  trace::Trace t;
  atlas::TraceFormat format = atlas::TraceFormat::kLegacy;
  std::string error;
  {
    SPTA_OBS_SPAN_ARG("service", "ingest_decode", "bytes",
                      request.payload.size());
    std::istringstream payload(request.payload);
    if (!atlas::TryReadAnyTrace(payload, &t, &format, &error)) {
      return ErrResponse("trace", error);
    }
  }
  const DualHash digest = atlas::TraceContentDigest(t);
  Args args;
  args.Set("format", atlas::ToString(format));
  args.SetUint("records", t.records.size());
  args.SetUint("path_signature", t.path_signature);
  args.Set("digest", KeyHex(digest.lo) + KeyHex(digest.hi));

  // The kernel table is keyed by the trace's CONTENT digest, so the same
  // trace ingested through either container answers from the cache. The
  // body's first line is a well-formed args line carrying the summary
  // counts — that is what lets a hit restore them without re-mining.
  if (const auto cached = engine_.cache().Lookup(digest.lo, digest.hi)) {
    const auto nl = cached->find('\n');
    const Args summary = Args::Parse(cached->substr(0, nl));
    args.SetUint("kernels", summary.GetUint("kernels", 0));
    args.SetUint("kernel_records", summary.GetUint("kernel_records", 0));
    args.Set("cache", "hit");
    return OkResponse(std::move(args), *cached);
  }

  SPTA_OBS_SPAN_ARG("service", "ingest_mine", "records", t.records.size());
  const atlas::Segmentation segmentation = atlas::MineKernels(t);
  std::ostringstream body;
  Args summary;
  summary.SetUint("kernels", segmentation.kernels.size());
  summary.SetUint("kernel_records", segmentation.KernelRecords());
  body << summary.Encode() << '\n';
  for (std::size_t k = 0; k < segmentation.kernels.size(); ++k) {
    const atlas::KernelInfo& info = segmentation.kernels[k];
    body << "kernel " << KeyHex(info.digest.lo) << KeyHex(info.digest.hi)
         << " begin=" << info.body_begin << " length=" << info.length
         << " iterations=" << info.iterations << '\n';
  }
  engine_.InsertCached(digest.lo, digest.hi, body.str());
  args.SetUint("kernels", segmentation.kernels.size());
  args.SetUint("kernel_records", segmentation.KernelRecords());
  args.Set("cache", "miss");
  return OkResponse(std::move(args), body.str());
}

Response Server::HandleMetrics() {
  const ResultCache::Stats cache = engine_.cache().stats();
  return OkResponse(metrics_.Snapshot(cache), metrics_.Render(cache));
}

std::string Server::RenderPromText() {
  return metrics_.RenderProm(engine_.cache().stats(),
                             obs::Tracer::Instance().GetStats());
}

Response Server::HandleMetricsProm() {
  Args args;
  args.Set("format", "prometheus-0.0.4");
  return OkResponse(std::move(args), RenderPromText());
}

Response Server::HandleTrace() {
  std::ostringstream trace_json;
  if (!obs::Tracer::Instance().WriteChromeTrace(trace_json)) {
    return ErrResponse("trace", "trace serialization failed");
  }
  const obs::Tracer::Stats stats = obs::Tracer::Instance().GetStats();
  Args args;
  args.Set("format", "chrome-trace");
  args.SetUint("events", stats.recorded);
  args.SetUint("dropped", stats.dropped);
  args.SetUint("enabled", obs::Tracer::Enabled() ? 1 : 0);
  return OkResponse(std::move(args), trace_json.str());
}

Response Server::HandleInline(const Request& request) {
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
    case RequestKind::kMetrics:
      return HandleMetrics();
    case RequestKind::kMetricsProm:
      return HandleMetricsProm();
    case RequestKind::kIngest:
      return HandleIngest(request);
    case RequestKind::kHealth:
      return HandleHealth();
    case RequestKind::kTrace:
      return HandleTrace();
    default:
      return ErrResponse("internal", "verb not handled inline");
  }
}

Response Server::HandleHealth() {
  Args args;
  std::size_t inflight = 0;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    inflight = analyses_in_flight_;
  }
  const bool draining = shutdown_.load(std::memory_order_acquire);
  // Saturation or a drain is "degraded", not an error: the probe still
  // answers OK (liveness), the status arg carries the readiness verdict.
  const bool ready = !draining && inflight < options_.queue_capacity;
  args.Set("status", ready ? "ok" : "degraded");
  args.Set("role", "server");
  args.SetUint("inflight", inflight);
  args.SetUint("queue_capacity", options_.queue_capacity);
  args.SetUint("sessions", sessions_.open_count());
  args.SetUint("draining", draining ? 1 : 0);
  return OkResponse(std::move(args));
}

Response Server::Execute(const Request& request) {
  // Shard entry point: the event loop parsed the wire context into the
  // request; installing it here links every span below (verb, analyze,
  // engine stages) into the client's tree.
  obs::ScopedTraceContext trace_scope(request.trace);
  SPTA_OBS_SPAN("service", RequestKindName(request.kind));
  if (request.kind == RequestKind::kShutdown) {
    metrics_.CountRequest(request.kind, false);
    return ErrResponse("internal", "SHUTDOWN is handled by the transport");
  }
  if (request.kind == RequestKind::kAnalyze) {
    std::vector<mbpta::PathObservation> observations;
    std::string collect_error;
    if (!CollectObservations(request, &observations, &collect_error)) {
      metrics_.CountRequest(request.kind, false);
      return ErrResponse("samples", collect_error);
    }
    const double deadline_ms =
        request.args.GetDouble("deadline_ms", options_.default_deadline_ms);
    const bool has_deadline = deadline_ms > 0.0;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               has_deadline ? deadline_ms : 0.0));
    // Same exception discipline as the pooled path: a shard thread must
    // never die on untrusted input.
    Response response;
    try {
      response =
          RunAnalysis(request, std::move(observations), deadline, has_deadline);
    } catch (const std::exception& e) {
      response = ErrResponse("internal", e.what());
    } catch (...) {
      response = ErrResponse("internal", "unknown analysis failure");
    }
    metrics_.CountRequest(request.kind, response.ok);
    return response;
  }
  Response response = HandleInline(request);
  metrics_.CountRequest(request.kind, response.ok);
  return response;
}

bool Server::ServeStream(std::istream& in, std::ostream& out) {
  OrderedWriter writer(out);
  std::uint64_t next_id = 0;
  bool shutdown = false;

  while (!shutdown) {
    Request request;
    std::string error;
    // The read span covers wire wait + frame parse; on an idle connection
    // it is dominated by the wait, which is exactly what makes request
    // arrival visible in a trace.
    const std::uint64_t read_start_ns =
        obs::Tracer::Enabled() ? obs::Tracer::NowNs() : 0;
    const ReadStatus status = ReadRequest(in, &request, &error);
    if (status == ReadStatus::kEof) break;
    if (obs::Tracer::Enabled()) {
      obs::Tracer::Instance().RecordComplete("service", "read_request",
                                             read_start_ns,
                                             obs::Tracer::NowNs());
    }
    const std::uint64_t id = next_id++;
    writer.Expect(id);
    // Adopt the request's wire context for everything this iteration
    // records (an untraced request installs the invalid context, which
    // leaves spans exactly as before).
    obs::ScopedTraceContext trace_scope(request.trace);
    if (status == ReadStatus::kMalformed) {
      // Framing is lost — answer once, then stop reading this stream.
      metrics_.CountProtocolError();
      writer.Complete(id, ErrResponse("malformed", error));
      break;
    }

    if (request.kind == RequestKind::kShutdown) {
      shutdown = true;
      shutdown_.store(true);
      // Drain: every ANALYZE accepted before this point completes and is
      // written (in order) before the SHUTDOWN acknowledgment below.
      SPTA_OBS_SPAN("service", "shutdown_drain");
      pool_.Wait();
      Args args;
      args.Set("drained", "1");
      metrics_.CountRequest(request.kind, true);
      writer.Complete(id, OkResponse(std::move(args)));
      break;
    }

    if (request.kind == RequestKind::kAnalyze) {
      std::vector<mbpta::PathObservation> observations;
      std::string collect_error;
      if (!CollectObservations(request, &observations, &collect_error)) {
        metrics_.CountRequest(request.kind, false);
        writer.Complete(id, ErrResponse("samples", collect_error));
        continue;
      }
      // Warm fast path: a request whose result is already cached is
      // answered inline on the reader thread — it never occupies a worker
      // slot, so cache hits stay cheap even while the pool is saturated
      // with cold analyses. A probe miss is not double-counted (see
      // ResultCache::LookupIfPresent); the worker's Lookup scores it.
      AnalysisOutcome cached;
      {
        SPTA_OBS_SPAN("service", "cache_probe");
        const auto probe_start = Clock::now();
        if (engine_.TryServeCached(
                observations, AnalysisConfig::FromArgs(request.args),
                &cached)) {
          const double micros = std::chrono::duration<double, std::micro>(
                                    Clock::now() - probe_start)
                                    .count();
          metrics_.RecordAnalyzeLatency(micros, /*cache_hit=*/true);
          metrics_.CountRequest(request.kind, true);
          writer.Complete(id, OkResponse(AnalysisArgs(cached, micros),
                                         cached.report));
          continue;
        }
      }
      if (!TryAcquireAnalyzeSlot()) {
        metrics_.CountBusyRejection();
        metrics_.CountRequest(request.kind, false);
        writer.Complete(
            id, ErrResponse("busy", "analysis queue full, retry later"));
        continue;
      }
      const double deadline_ms =
          request.args.GetDouble("deadline_ms", options_.default_deadline_ms);
      const bool has_deadline = deadline_ms > 0.0;
      const Clock::time_point deadline =
          Clock::now() +
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double, std::milli>(deadline_ms));
      // Queue wait: enqueue → worker pickup. The metric records always
      // (it is the service's backpressure signal); the span only when the
      // tracer runs, as a cross-thread complete event.
      const auto enqueued = Clock::now();
      const std::uint64_t enqueued_ns =
          obs::Tracer::Enabled() ? obs::Tracer::NowNs() : 0;
      // The ticket fixes this request's place among identical analyses
      // in request order (AnalysisEngine::TakeTicket).
      std::lock_guard<std::mutex> dispatch(dispatch_mutex_);
      pool_.Submit([this, id, &writer, request = std::move(request),
                    observations = std::move(observations), deadline,
                    has_deadline, enqueued, enqueued_ns,
                    ticket = engine_.TakeTicket(cached.key)]() mutable {
        // Cross-thread hop: re-install the request's context on the
        // worker so queue_wait and the analysis spans stay in its tree.
        obs::ScopedTraceContext trace_scope(request.trace);
        metrics_.RecordQueueWait(
            std::chrono::duration<double, std::micro>(Clock::now() -
                                                      enqueued)
                .count());
        if (enqueued_ns != 0 && obs::Tracer::Enabled()) {
          obs::Tracer::Instance().RecordComplete("service", "queue_wait",
                                                 enqueued_ns,
                                                 obs::Tracer::NowNs(), "id",
                                                 id);
        }
        // Worker tasks must not leak exceptions: ThreadPool::Wait
        // rethrows captured ones on whichever thread waits next, which
        // would escape a connection thread and terminate the daemon.
        Response response;
        try {
          response = RunAnalysis(request, std::move(observations), deadline,
                                 has_deadline, std::move(ticket));
        } catch (const std::exception& e) {
          response = ErrResponse("internal", e.what());
        } catch (...) {
          response = ErrResponse("internal", "unknown analysis failure");
        }
        metrics_.CountRequest(RequestKind::kAnalyze, response.ok);
        ReleaseAnalyzeSlot();
        writer.Complete(id, std::move(response));
      });
      continue;
    }

    // RequestKindName returns a pointer to static storage, satisfying the
    // tracer's literal-lifetime contract.
    SPTA_OBS_SPAN_ARG("service", RequestKindName(request.kind), "id", id);
    Response response = HandleInline(request);
    metrics_.CountRequest(request.kind, response.ok);
    writer.Complete(id, std::move(response));
  }

  // Per-stream completion: Drain waits for every id this stream reserved,
  // so one connection's EOF never blocks on other connections' in-flight
  // work (the pool is shared; a pool-wide Wait here would couple them).
  writer.Drain();
  return shutdown;
}

void Server::RegisterConnection(int fd) {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  connection_fds_.push_back(fd);
  // A connection accepted concurrently with TriggerShutdown can register
  // after the SHUT_RD sweep already ran; TriggerShutdown holds the same
  // mutex, so checking the flag here makes the handoff race-free — one of
  // the two sides always shuts this fd's read half down.
  if (shutdown_.load()) ::shutdown(fd, SHUT_RD);
}

void Server::UnregisterConnection(int fd) {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  std::erase(connection_fds_, fd);
}

void Server::TriggerShutdown() {
  shutdown_.store(true);
  std::lock_guard<std::mutex> lock(connections_mutex_);
  // Unblock every reader: their streams hit EOF and drain cleanly.
  for (const int fd : connection_fds_) ::shutdown(fd, SHUT_RD);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

int Server::ServeUnixSocket(const std::string& path) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) return ENAMETOOLONG;
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) return errno;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd, options_.listen_backlog) != 0) {
    const int err = errno;
    ::close(listen_fd);
    return err;
  }
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    listen_fd_ = listen_fd;
  }

  std::vector<std::thread> connections;
  std::uint64_t connection_ordinal = 0;
  while (!shutdown_.load()) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by TriggerShutdown (or fatal error)
    }
    const std::uint64_t ordinal = connection_ordinal++;
    connections.emplace_back([this, fd, ordinal] {
      RegisterConnection(fd);
      // Fault-injection wrap: count every fired fault into the metrics
      // surface so an operator (or the fault-matrix test) can see the
      // injection campaign without scraping logs. The shared counter is
      // touched from the reader thread and from workers flushing
      // responses, hence atomic.
      IoFaultHook hook;
      auto fired = std::make_shared<std::atomic<std::uint64_t>>(0);
      if (options_.io_fault_hook_factory) {
        if (IoFaultHook inner = options_.io_fault_hook_factory(ordinal)) {
          hook = [this, inner = std::move(inner), fired](IoOp op,
                                                         std::size_t n) {
            const IoFault fault = inner(op, n);
            if (!fault.None()) {
              fired->fetch_add(1, std::memory_order_relaxed);
              metrics_.CountInjectedFaults(1);
            }
            return fault;
          };
        }
      }
      FdStreambuf in_buf(fd, hook);
      FdStreambuf out_buf(fd, hook);
      std::istream in(&in_buf);
      std::ostream out(&out_buf);
      const bool got_shutdown = ServeStream(in, out);
      out.flush();
      // An injected-fault connection that didn't reach a clean SHUTDOWN
      // handshake was degraded: its stream died (disconnect, EAGAIN
      // exhaustion) and the per-session state was dropped. The daemon
      // itself carries on.
      if (!got_shutdown &&
          fired->load(std::memory_order_relaxed) > 0) {
        metrics_.CountDegradedSession();
      }
      UnregisterConnection(fd);
      if (got_shutdown) TriggerShutdown();
      ::close(fd);
    });
  }
  for (auto& thread : connections) thread.join();
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    listen_fd_ = -1;
  }
  ::close(listen_fd);
  ::unlink(path.c_str());
  return 0;
}

}  // namespace spta::service
