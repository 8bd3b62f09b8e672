// spta_serve — resident pWCET analysis daemon.
//
//   spta_serve (--socket PATH | --pipe | --tcp PORT) [--host A.B.C.D]
//              [--shards N] [--queue N] [--cache N] [--deadline-ms D]
//              [--cache-dir DIR] [--cache-max-bytes N]
//              [--cache-quota-bytes N] [--backlog N] [--reuseport]
//              [--health-fd FD] [--flight-fd FD] [--trace-dir DIR]
//              [--prom-out FILE [--prom-interval-ms N]]
//
// Every mode is the same server (service/sharded_server.hpp): one epoll
// event loop routes frames to N worker shards (--shards, default one per
// core) — session verbs by session name, stateless requests to the least
// loaded shard — each with a bounded queue (--queue, default 256; a full
// queue answers ERR busy). The shards share one analysis engine whose
// result cache holds --cache entries per shard. The modes differ only in
// where the connections come from:
//
//   --socket PATH  an AF_UNIX stream listener (a stale socket file is
//                  replaced; the file is removed on exit).
//   --pipe         one framed request stream on stdin/stdout (inetd style;
//                  also what scripted clients use). stdin and stdout are
//                  bridged to a socketpair the loop adopts; the daemon
//                  drains and exits when the stream ends.
//   --tcp PORT     a TCP listener on --host (default 127.0.0.1). PORT 0
//                  picks an ephemeral port, printed on stderr as
//                  "listening on HOST:PORT". --reuseport lets several
//                  processes (the spta_fleet supervisor's children) share
//                  the port.
//
// --cache-dir enables the disk-backed warm-start cache; --cache-max-bytes
// bounds it (LRU eviction); --cache-quota-bytes simulates a full device
// (chaos). --health-fd adopts an inherited fd (the spta_fleet watchdog's
// socketpair end) as one more served connection, so the supervisor can
// HEALTH-probe this specific child. Unknown flags are a usage error.
//
// Observability (docs/OBSERVABILITY.md):
//   --trace-dir DIR enables the in-process tracer and exports its Chrome
//   trace JSON as DIR/trace-<pid>.json at exit (merged fleet-wide by
//   spta_fleet --trace-dir or spta_cli trace-view --merge).
//   --flight-fd N adopts an inherited shared-memory flight-recorder ring
//   (created by spta_fleet --flight-dir) and mirrors every trace event
//   into it, so the supervisor can harvest the last spans post-mortem —
//   even after SIGKILL. The TRACE verb serves the live export in-band.
//
// --prom-out periodically exports the same Prometheus text body that the
// METRICS_PROM verb serves (atomic tmp+rename, so a scraper using the
// node-exporter textfile pattern never reads a torn file), every
// --prom-interval-ms ms (default 1000; 0 = only the final export at
// shutdown). The final state is always written on exit.
//
// Robustness contract:
//   * SIGPIPE is ignored — a client that disconnects mid-response must
//     surface as a write error on that connection, never kill the daemon.
//   * SIGTERM/SIGINT trigger the same drain-on-shutdown path as an in-band
//     SHUTDOWN request: the handler writes one byte to a self-pipe
//     (async-signal-safe) and a watcher thread calls
//     ShardedServer::TriggerShutdown(), so in-flight analyses still get
//     their responses before exit.
//
// Protocol, session model and cache semantics: docs/SERVICE.md.
// Fault-injection and degradation model: docs/FAULTS.md.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/flags.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "service/sharded_server.hpp"

namespace {

using namespace spta;

int Usage() {
  std::fprintf(stderr,
               "usage: spta_serve (--socket PATH | --pipe | --tcp PORT) "
               "[--host A.B.C.D] [--shards N] [--reuseport] "
               "[--queue N] [--cache N] [--deadline-ms D] [--cache-dir DIR] "
               "[--cache-max-bytes N] [--cache-quota-bytes N] "
               "[--backlog N] [--health-fd FD] "
               "[--flight-fd FD] [--trace-dir DIR] "
               "[--prom-out FILE [--prom-interval-ms N]]\n");
  return 2;
}

const std::vector<std::string> kKnownFlags = {
    "socket",      "pipe",      "tcp",       "host",
    "shards",      "reuseport", "queue",     "cache",
    "deadline-ms", "cache-dir", "cache-max-bytes",
    "cache-quota-bytes",        "backlog",   "health-fd",
    "flight-fd",   "trace-dir", "prom-out",  "prom-interval-ms"};

/// Observability session for --flight-fd / --trace-dir: enables the
/// process tracer, attaches the inherited flight-recorder ring (so the
/// supervisor can harvest the last spans even after SIGKILL), and on
/// destruction exports the Chrome trace JSON as DIR/trace-<pid>.json for
/// the supervisor (or spta_cli trace-view --merge) to stitch.
class ObsSession {
 public:
  ObsSession(int flight_fd, std::string trace_dir)
      : trace_dir_(std::move(trace_dir)) {
    if (flight_fd < 0 && trace_dir_.empty()) return;
    obs::Tracer::Instance().Enable();
    if (flight_fd >= 0) {
      std::string error;
      if (recorder_.AttachWriter(flight_fd, &error)) {
        obs::SetGlobalFlightRecorder(&recorder_);
      } else {
        std::fprintf(stderr, "spta_serve: flight ring attach failed: %s\n",
                     error.c_str());
      }
    }
  }

  ~ObsSession() {
    if (recorder_.attached()) obs::SetGlobalFlightRecorder(nullptr);
    if (trace_dir_.empty()) return;
    const std::string path =
        trace_dir_ + "/trace-" + std::to_string(::getpid()) + ".json";
    std::string error;
    if (!obs::Tracer::Instance().WriteChromeTraceFile(path, &error)) {
      std::fprintf(stderr, "spta_serve: trace export failed: %s\n",
                   error.c_str());
    }
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

 private:
  obs::FlightRecorder recorder_;
  std::string trace_dir_;
};

/// Periodic Prometheus textfile exporter (--prom-out). Writes the same
/// body METRICS_PROM serves; the destructor stops the ticker and writes
/// one final export so the shutdown-state counters always land on disk.
class PromExporter {
 public:
  PromExporter(std::function<std::string()> render, std::string path,
               double interval_ms)
      : render_(std::move(render)), path_(std::move(path)) {
    if (interval_ms > 0.0) {
      interval_ = std::chrono::duration<double, std::milli>(interval_ms);
      thread_ = std::thread([this] { Loop(); });
    }
  }

  ~PromExporter() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    stop_cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    WriteOnce();
  }

  PromExporter(const PromExporter&) = delete;
  PromExporter& operator=(const PromExporter&) = delete;

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_cv_.wait_for(lock, interval_, [this] { return stop_; })) {
      lock.unlock();
      WriteOnce();
      lock.lock();
    }
  }

  void WriteOnce() {
    std::string error;
    if (!AtomicWriteFile(path_, render_(), &error)) {
      std::fprintf(stderr, "spta_serve: prom export failed: %s\n",
                   error.c_str());
    }
  }

  std::function<std::string()> render_;
  std::string path_;
  std::chrono::duration<double, std::milli> interval_{0};
  std::mutex mutex_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Self-pipe written by the signal handler, drained by the watcher thread.
/// File-scope because signal handlers cannot capture state.
int g_signal_pipe[2] = {-1, -1};

extern "C" void OnTerminationSignal(int) {
  // write() is async-signal-safe; TriggerShutdown (locks) is not, so the
  // heavy lifting is deferred to the watcher thread on the read end.
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

/// Blocks until the handler pings the self-pipe (or it closes), then runs
/// the graceful shutdown.
void WatchSignals(service::ShardedServer* server) {
  ssize_t n;
  char byte;
  while ((n = ::read(g_signal_pipe[0], &byte, 1)) < 0 && errno == EINTR) {
  }
  if (n <= 0) return;  // write end closed: normal exit, nothing to do
  std::fprintf(stderr, "spta_serve: termination signal; draining...\n");
  server->TriggerShutdown();
}

/// Copies `from` to `to` until EOF or an error on either side. The --pipe
/// bridge runs two: stdin into the loop's socketpair (stdin may be a
/// regular file, which epoll cannot watch) and the responses back out to
/// stdout.
void Copy(int from, int to) {
  char buffer[65536];
  for (;;) {
    const ssize_t n = ::read(from, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    for (ssize_t off = 0; off < n;) {
      const ssize_t w =
          ::write(to, buffer + off, static_cast<std::size_t>(n - off));
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return;
      off += w;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto unknown = flags.UnknownFlags(kKnownFlags);
  if (!unknown.empty()) {
    std::fprintf(stderr, "spta_serve: unknown flag --%s\n",
                 unknown.front().c_str());
    return Usage();
  }
  const std::string socket_path = flags.GetString("socket");
  const bool pipe_mode = flags.GetBool("pipe");
  const bool tcp_mode = flags.Has("tcp");
  const int mode_count = static_cast<int>(!socket_path.empty()) +
                         static_cast<int>(pipe_mode) +
                         static_cast<int>(tcp_mode);
  if (mode_count != 1) return Usage();  // exactly one mode

  service::ShardedServerOptions options;
  options.shards = static_cast<std::size_t>(flags.GetInt(
      "shards", std::max(1U, std::thread::hardware_concurrency())));
  options.shard_queue_capacity =
      static_cast<std::size_t>(flags.GetInt("queue", 256));
  options.cache_capacity =
      static_cast<std::size_t>(flags.GetInt("cache", 128));
  options.default_deadline_ms = flags.GetDouble("deadline-ms", 0.0);
  options.listen_backlog = static_cast<int>(flags.GetInt("backlog", 128));
  options.reuseport = flags.GetBool("reuseport");
  options.cache_dir = flags.GetString("cache-dir");
  // On-disk budget / simulated-capacity for the persistent cache
  // (docs/SERVICE.md "Failure modes"): eviction keeps the footprint under
  // --cache-max-bytes; --cache-quota-bytes makes Puts past it behave like
  // ENOSPC (the chaos harness's disk-full lever).
  options.cache_max_bytes =
      static_cast<std::uint64_t>(flags.GetInt("cache-max-bytes", 0));
  options.cache_quota_bytes =
      static_cast<std::uint64_t>(flags.GetInt("cache-quota-bytes", 0));
  // --health-fd: an inherited fd (the spta_fleet watchdog's socketpair
  // end) served exactly like an accepted connection, so supervisor HEALTH
  // probes reach this child directly — SO_REUSEPORT gives the supervisor
  // no way to address a specific child through the port.
  options.adopt_fd = static_cast<int>(flags.GetInt("health-fd", -1));
  if (options.shards == 0) {
    std::fprintf(stderr, "spta_serve: --shards must be >= 1\n");
    return 2;
  }
  if (options.shard_queue_capacity == 0 ||
      options.cache_capacity == 0) {
    std::fprintf(stderr, "spta_serve: --queue and --cache must be >= 1\n");
    return 2;
  }
  if (options.listen_backlog < 1) {
    std::fprintf(stderr, "spta_serve: --backlog must be >= 1\n");
    return 2;
  }
  if (pipe_mode && options.adopt_fd >= 0) {
    std::fprintf(stderr, "spta_serve: --health-fd needs a listener\n");
    return 2;
  }
  const int port = static_cast<int>(flags.GetInt("tcp", 0));
  if (port < 0 || port > 65535) return Usage();

  const std::string prom_out = flags.GetString("prom-out");
  const double prom_interval_ms =
      flags.GetDouble("prom-interval-ms", 1000.0);
  if (prom_interval_ms < 0.0) {
    std::fprintf(stderr, "spta_serve: --prom-interval-ms must be >= 0\n");
    return 2;
  }

  // The drain handlers go in before anything slow (the persistent cache
  // can take a while to load). spta_fleet keeps SIGTERM and SIGINT
  // blocked through exec, so one it forwards during startup waits here
  // instead of killing the child without a drain.
  const bool signal_pipe = ::pipe(g_signal_pipe) == 0;
  if (signal_pipe) {
    std::signal(SIGTERM, OnTerminationSignal);
    std::signal(SIGINT, OnTerminationSignal);
  } else {
    std::fprintf(stderr,
                 "spta_serve: self-pipe failed; signals exit ungracefully\n");
  }
  sigset_t drain_signals;
  sigemptyset(&drain_signals);
  sigaddset(&drain_signals, SIGTERM);
  sigaddset(&drain_signals, SIGINT);
  ::pthread_sigmask(SIG_UNBLOCK, &drain_signals, nullptr);

  // --flight-fd / --trace-dir turn on tracing for the process lifetime.
  // Declared before the server so the ring and the trace export outlive
  // every thread that records into them.
  ObsSession obs_session(static_cast<int>(flags.GetInt("flight-fd", -1)),
                         flags.GetString("trace-dir"));

  // A dead peer is an ERR on its own connection, never a daemon death.
  std::signal(SIGPIPE, SIG_IGN);

  // --pipe: the loop serves one end of a socketpair; the other end is
  // bridged to stdin/stdout below.
  int bridge[2] = {-1, -1};
  if (pipe_mode) {
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, bridge) != 0) {
      std::fprintf(stderr, "spta_serve: socketpair failed (errno %d)\n",
                   errno);
      return 1;
    }
    options.adopt_fd = bridge[0];
  }

  service::ShardedServer fleet(options);
  const std::string host = flags.GetString("host", "127.0.0.1");
  if (tcp_mode) {
    if (const int err =
            fleet.ListenTcp(host, static_cast<std::uint16_t>(port))) {
      std::fprintf(stderr, "spta_serve: tcp bind failed (errno %d)\n", err);
      return 1;
    }
  } else if (!socket_path.empty()) {
    if (const int err = fleet.ListenUnix(socket_path)) {
      std::fprintf(stderr, "spta_serve: socket setup failed (errno %d)\n",
                   err);
      return 1;
    }
  }
  std::unique_ptr<PromExporter> prom_exporter;
  if (!prom_out.empty()) {
    prom_exporter = std::make_unique<PromExporter>(
        [&fleet] { return fleet.RenderFleetProm(); }, prom_out,
        prom_interval_ms);
  }
  if (tcp_mode) {
    std::fprintf(stderr, "spta_serve: listening on %s:%u (%zu shards)\n",
                 host.c_str(), fleet.bound_port(), fleet.shard_count());
  } else if (!socket_path.empty()) {
    std::fprintf(stderr, "spta_serve: listening on %s (%zu shards)\n",
                 socket_path.c_str(), fleet.shard_count());
  }
  int exit_code = 0;
  std::thread watcher;
  if (const int err = fleet.Start()) {
    std::fprintf(stderr, "spta_serve: start failed (errno %d)\n", err);
    exit_code = 1;
  } else {
    // Started after Start() so TriggerShutdown never races the loop's
    // setup; a signal that came earlier waits in the self-pipe.
    if (signal_pipe) watcher = std::thread(WatchSignals, &fleet);
    std::thread responses;
    if (pipe_mode) {
      // The request copier may block on a stdin that never ends (the
      // stream can stop at SHUTDOWN first), so it is detached, and
      // bridge[1] stays open until exit. It shuts the write half down at
      // EOF, which the loop reads as the end of the request stream.
      std::thread([fd = bridge[1]] {
        Copy(STDIN_FILENO, fd);
        ::shutdown(fd, SHUT_WR);
      }).detach();
      // The loop closes its end once the stream has ended and every
      // response is flushed (or at teardown); the service ends with it.
      responses = std::thread([&fleet, fd = bridge[1]] {
        Copy(fd, STDOUT_FILENO);
        fleet.TriggerShutdown();
      });
    }
    fleet.Wait();
    if (responses.joinable()) responses.join();
  }
  if (watcher.joinable()) {
    // SIG_IGN, not SIG_DFL: the drain is already done, and a second
    // SIGTERM racing this exit path must not turn a clean drain into a
    // killed-by-signal exit (the fleet supervisor counts those as dirty).
    std::signal(SIGTERM, SIG_IGN);
    std::signal(SIGINT, SIG_IGN);
    ::close(g_signal_pipe[1]);
    watcher.join();
    ::close(g_signal_pipe[0]);
  }
  // Stops the ticker and writes the final Prometheus export before the
  // exposition below, so file and stderr agree on the exit state.
  prom_exporter.reset();
  std::fprintf(stderr, "spta_serve: exiting; fleet exposition:\n%s",
               fleet.RenderFleetProm().c_str());
  return exit_code;
}
