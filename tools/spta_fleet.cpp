// spta_fleet — self-healing process supervisor for a spta_serve fleet.
//
//   spta_fleet --tcp PORT [--host A.B.C.D] [--procs N] [--shards M]
//              [--cache-dir DIR] [--cache-max-bytes N]
//              [--cache-quota-bytes N] [--serve-bin PATH] [--backlog N]
//              [--respawn-limit K] [--min-uptime-ms N]
//              [--respawn-base-ms N] [--respawn-cap-ms N] [--backoff-seed S]
//              [--watchdog-interval-ms N] [--watchdog-timeout-ms N]
//              [--watchdog-seed S] [--flight-dir DIR] [--flight-slots N]
//              [--trace-dir DIR]
//
// Spawns N `spta_serve --tcp PORT --reuseport` children sharing one TCP
// port via SO_REUSEPORT (the kernel load-balances connections across the
// listeners), each child running M internal shards — the fleet's total
// parallelism is N*M shard threads. Before spawning, the supervisor binds
// the port itself with SO_REUSEPORT and holds that socket (bound, never
// listening, so it takes no connections) for its lifetime: the port stays
// the fleet's across respawns, and `--tcp 0` picks a free port with no
// window for another process to take it. The port is logged as the
// "bound" event (below) before any child is spawned. The supervisor then
// babysits:
//
//   * a child that dies (crash, OOM kill) is respawned, up to
//     --respawn-limit times per child (default 5). A child that dies
//     within --min-uptime-ms of its spawn is crash-looping: its respawn
//     is delayed by a seeded decorrelated-jitter backoff
//     (--respawn-base-ms growing toward --respawn-cap-ms), so a broken
//     binary burns wall-clock, not fork() and its respawn budget. A
//     child that survived past --min-uptime-ms respawns immediately and
//     resets its backoff schedule;
//   * a WATCHDOG probes each child over a private socketpair (the child
//     serves it via `spta_serve --health-fd`): every
//     --watchdog-interval-ms (seeded jitter spreads the probes) the
//     supervisor writes a HEALTH frame; a child that produces no reply
//     bytes within --watchdog-timeout-ms is alive-but-unresponsive
//     (wedged) and is SIGKILLed, which routes it through the normal
//     respawn path. --watchdog-interval-ms 0 disables probing;
//   * SIGTERM/SIGINT are forwarded to every child (plus SIGCONT, so a
//     stopped child can still drain) and the supervisor waits for their
//     graceful drains — in-flight requests still get their responses
//     (zero-loss drain, per child);
//   * a child that exits cleanly (in-band SHUTDOWN) is NOT respawned;
//     when the last child is gone the supervisor exits.
//
// NOTE on --cache-dir: children of one fleet may share a cache directory —
// entry writes are atomic (tmp+rename with pid-qualified tmp names), and
// every child warm-starts from the shared pool at spawn.
//
// Observability (docs/OBSERVABILITY.md):
//   * stderr is structured: one JSON object per line (common/jsonlog),
//     e.g. {"ts_ms":...,"pid":...,"component":"spta_fleet",
//     "event":"spawned","child_pid":...,"slot":...}. The chaos test and
//     operator tooling parse these lines; the event vocabulary is the
//     stable contract, the prose is gone.
//   * --flight-dir DIR arms the crash-surviving flight recorder: every
//     child gets a fresh shared-memory ring (memfd, --flight-slots
//     records) passed as `--flight-fd N`; when the child dies — clean
//     exit, crash, or watchdog SIGKILL — the supervisor harvests the
//     ring post-mortem and dumps it as DIR/flight-<pid>.json (Chrome
//     trace JSON). Torn records from a mid-write death are skipped and
//     counted, never fatal.
//   * --trace-dir DIR rides along to every child (spta_serve --trace-dir
//     exports trace-<pid>.json at exit); at supervisor exit all exports
//     in DIR are merged into DIR/trace-merged.json — one Perfetto-
//     loadable trace for the whole fleet run.
//
// Exit code: 0 when the fleet wound down in control — every child either
// drained cleanly or was respawned within budget (a chaos-killed child
// that came back does NOT poison the exit code). 1 when a child hit its
// respawn limit (fleet degraded) or died dirty AFTER the drain was
// requested.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/flags.hpp"
#include "common/hash.hpp"
#include "common/jsonlog.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace_merge.hpp"
#include "service/protocol.hpp"
#include "service/retry.hpp"

namespace {

using namespace spta;

/// Binds a SO_REUSEPORT TCP socket to host:port (port 0 = a free port the
/// kernel picks) without listening, and stores the bound port in *bound.
/// Returns the socket (close-on-exec, so children never inherit it) or -1
/// with errno set.
int BindPortHolder(const std::string& host, int port, int* bound) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  socklen_t len = sizeof(addr);
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0 ||
      ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const int saved = errno == 0 ? EINVAL : errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  *bound = ntohs(addr.sin_port);
  return fd;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: spta_fleet --tcp PORT [--host A.B.C.D] [--procs N] "
      "[--shards M] [--cache-dir DIR] [--cache-max-bytes N] "
      "[--cache-quota-bytes N] [--serve-bin PATH] [--backlog N] "
      "[--respawn-limit K] [--min-uptime-ms N] [--respawn-base-ms N] "
      "[--respawn-cap-ms N] [--backoff-seed S] [--watchdog-interval-ms N] "
      "[--watchdog-timeout-ms N] [--watchdog-seed S] [--flight-dir DIR] "
      "[--flight-slots N] [--trace-dir DIR]\n");
  return 2;
}

/// The supervisor's wake-up set. SIGTERM/SIGINT/SIGCHLD stay *blocked* for
/// the supervisor's lifetime and are consumed synchronously with
/// sigtimedwait(2) in the main loop. A handler + blocking waitpid() does
/// not work here: glibc's signal() installs SA_RESTART, so waitpid()
/// resumes after the handler instead of failing EINTR and a SIGTERM would
/// not be forwarded until some child happened to die on its own. Blocking
/// the signals makes delivery a queue the loop drains — nothing can be
/// lost between "check the flag" and "block in wait"; the timeout is what
/// drives the watchdog and backoff clocks.
sigset_t SupervisorSigset() {
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGTERM);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGCHLD);
  return mask;
}

/// Resolves the spta_serve binary next to this executable (the build tree
/// and install layouts both put them side by side).
std::string DefaultServeBin() {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n <= 0) return "spta_serve";
  buffer[n] = '\0';
  std::string path(buffer);
  const std::size_t slash = path.rfind('/');
  if (slash == std::string::npos) return "spta_serve";
  return path.substr(0, slash + 1) + "spta_serve";
}

/// CLOCK_MONOTONIC in ms — the supervisor's only clock (wall time jumps
/// must not fire the watchdog or stretch a backoff).
std::int64_t NowMs() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000 +
         ts.tv_nsec / 1000000;
}

/// Seeded-jitter probe spacing in [interval/2, interval]: deterministic
/// per (seed, counter), but de-phased across children so N probes do not
/// land on the same tick.
std::int64_t ProbeDelayMs(std::uint64_t seed, std::uint64_t counter,
                          std::int64_t interval_ms) {
  const std::int64_t half = interval_ms / 2;
  const std::uint64_t span =
      static_cast<std::uint64_t>(interval_ms - half) + 1;
  return half + static_cast<std::int64_t>(Mix64(HashCombine(seed, counter)) %
                                          span);
}

/// The wire bytes of one HEALTH probe (constant — build once).
std::string HealthFrame() {
  service::Request request;
  request.kind = service::RequestKind::kHealth;
  std::string out;
  service::AppendRequestFrame(request, &out);
  return out;
}

struct Child {
  pid_t pid = -1;
  int respawns = 0;
  bool clean_exit = false;  ///< Exited 0 — drained, do not respawn.
  bool gave_up = false;     ///< Respawn limit hit (fleet degraded).
  /// Parent end of the health socketpair; -1 when the child is down or
  /// the pair could not be made (the child then just goes unprobed).
  int health_fd = -1;
  /// This incarnation's flight-recorder ring (-1 = flight recording off
  /// or the ring could not be made). Harvested post-mortem at reap time.
  int flight_fd = -1;
  std::int64_t spawned_ms = 0;
  /// When a pending (backed-off) respawn is due; 0 = none pending.
  std::int64_t respawn_due_ms = 0;
  /// Watchdog: when to send the next probe / when the in-flight probe
  /// times out (0 = no probe in flight).
  std::int64_t next_probe_ms = 0;
  std::int64_t probe_deadline_ms = 0;
  std::uint64_t probe_counter = 0;
  /// Decorrelated-jitter respawn schedule; allocated on the first
  /// crash-loop death, reset by a run that survived past min-uptime.
  std::unique_ptr<service::RetrySchedule> backoff;
};

struct SpawnResult {
  pid_t pid = -1;
  int health_fd = -1;
  int flight_fd = -1;
};

SpawnResult SpawnChild(const std::string& serve_bin,
                       const std::vector<std::string>& base_args,
                       std::size_t slot, std::size_t flight_slots) {
  int sv[2] = {-1, -1};
  const bool have_pair = ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0;
  if (have_pair) {
    // Parent end must not leak into this (or any later) child; the child
    // end rides through execv as `--health-fd N`.
    ::fcntl(sv[0], F_SETFD, FD_CLOEXEC);
    const int fl = ::fcntl(sv[0], F_GETFL, 0);
    if (fl >= 0) ::fcntl(sv[0], F_SETFL, fl | O_NONBLOCK);
  }
  // Fresh ring per incarnation: the old incarnation's telemetry lives in
  // its own memfd until harvested, the new child starts clean. The fd is
  // created without CLOEXEC (it must ride through execv); the parent's
  // copy gets CLOEXEC after the fork so later siblings do not inherit it.
  int flight_fd = -1;
  if (flight_slots > 0) {
    std::string flight_error;
    flight_fd = obs::FlightRecorder::CreateRingFd(flight_slots,
                                                  &flight_error);
    if (flight_fd < 0) {
      JsonLogLine("spta_fleet", "flight_ring_failed")
          .Int("slot", static_cast<std::int64_t>(slot))
          .Str("error", flight_error)
          .Emit();
    }
  }
  std::vector<std::string> args = base_args;
  if (have_pair) {
    args.push_back("--health-fd");
    args.push_back(std::to_string(sv[1]));
  }
  if (flight_fd >= 0) {
    args.push_back("--flight-fd");
    args.push_back(std::to_string(flight_fd));
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: the supervisor runs with SIGTERM/SIGINT/SIGCHLD blocked and
    // the mask survives execv. SIGTERM and SIGINT stay blocked: spta_serve
    // unblocks them once its drain handler is installed, so a SIGTERM
    // forwarded during its startup is held pending instead of killing it
    // (a dirty exit).
    sigset_t chld;
    sigemptyset(&chld);
    sigaddset(&chld, SIGCHLD);
    ::sigprocmask(SIG_UNBLOCK, &chld, nullptr);
    // Build argv and exec. On failure exit 127 so the supervisor counts
    // it as a dirty exit rather than silently running supervisor code
    // twice.
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(serve_bin.c_str()));
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(serve_bin.c_str(), argv.data());
    JsonLogLine("spta_fleet", "exec_failed")
        .Str("bin", serve_bin)
        .Str("error", std::strerror(errno))
        .Emit();
    ::_exit(127);
  }
  if (have_pair) ::close(sv[1]);
  if (pid < 0) {
    if (have_pair) ::close(sv[0]);
    if (flight_fd >= 0) ::close(flight_fd);
    JsonLogLine("spta_fleet", "fork_failed")
        .Int("slot", static_cast<std::int64_t>(slot))
        .Str("error", std::strerror(errno))
        .Emit();
    return {};
  }
  // The child inherited the ring fd at fork; keep the parent's copy for
  // the post-mortem harvest but stop later children from inheriting it.
  if (flight_fd >= 0) ::fcntl(flight_fd, F_SETFD, FD_CLOEXEC);
  // Parseable by the chaos test (and by an operator watching for churn).
  JsonLogLine("spta_fleet", "spawned")
      .Int("child_pid", pid)
      .Int("slot", static_cast<std::int64_t>(slot))
      .Emit();
  return {pid, have_pair ? sv[0] : -1, flight_fd};
}

/// Post-mortem flight harvest: reads the dead incarnation's ring, dumps
/// it as Chrome JSON (flight-<pid>.json), logs the recovery counts, and
/// closes the fd. Tolerates everything a crash can leave behind — an
/// invalid ring still dumps (valid=0), torn records are skipped and
/// counted — because losing the supervisor to a dead child's garbage
/// would defeat the whole flight-recorder design.
void HarvestFlight(Child* child, pid_t pid, const std::string& flight_dir) {
  if (child->flight_fd < 0) return;
  const int fd = child->flight_fd;
  child->flight_fd = -1;
  if (!flight_dir.empty()) {
    const obs::FlightRecorder::Harvest harvest =
        obs::FlightRecorder::HarvestFd(fd);
    const std::string path =
        flight_dir + "/flight-" + std::to_string(pid) + ".json";
    std::string error;
    const bool wrote = AtomicWriteFile(
        path, obs::FlightRecorder::HarvestToChromeJson(harvest), &error);
    JsonLogLine log("spta_fleet", "flight_harvest");
    log.Int("child_pid", pid)
        .Str("path", path)
        .Int("valid", harvest.valid ? 1 : 0)
        .Int("records", static_cast<std::int64_t>(harvest.records.size()))
        .Int("torn", static_cast<std::int64_t>(harvest.torn));
    if (!wrote) log.Str("write_error", error);
    log.Emit();
  }
  ::close(fd);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (!flags.Has("tcp")) return Usage();
  const int requested_port = static_cast<int>(flags.GetInt("tcp", 0));
  if (requested_port < 0 || requested_port > 65535) {
    std::fprintf(stderr, "spta_fleet: --tcp needs a port in [0, 65535]\n");
    return 2;
  }
  const std::string host = flags.GetString("host", "127.0.0.1");
  const int procs = static_cast<int>(flags.GetInt("procs", 2));
  const int shards = static_cast<int>(flags.GetInt("shards", 1));
  const int respawn_limit =
      static_cast<int>(flags.GetInt("respawn-limit", 5));
  if (procs < 1 || shards < 1 || respawn_limit < 0) return Usage();
  const std::string serve_bin =
      flags.GetString("serve-bin", DefaultServeBin());
  const std::string cache_dir = flags.GetString("cache-dir");
  const int backlog = static_cast<int>(flags.GetInt("backlog", 128));
  // Crash-loop detection + backoff knobs.
  const std::int64_t min_uptime_ms = flags.GetInt("min-uptime-ms", 1000);
  const std::int64_t respawn_base_ms =
      std::max<std::int64_t>(1, flags.GetInt("respawn-base-ms", 100));
  const std::int64_t respawn_cap_ms = std::max(
      respawn_base_ms, flags.GetInt("respawn-cap-ms", 5000));
  const std::uint64_t backoff_seed =
      static_cast<std::uint64_t>(flags.GetInt("backoff-seed", 1));
  // Watchdog knobs; interval 0 disables probing entirely.
  const std::int64_t watchdog_interval_ms =
      std::max<std::int64_t>(0, flags.GetInt("watchdog-interval-ms", 500));
  const std::int64_t watchdog_timeout_ms =
      std::max<std::int64_t>(1, flags.GetInt("watchdog-timeout-ms", 2000));
  const std::uint64_t watchdog_seed =
      static_cast<std::uint64_t>(flags.GetInt("watchdog-seed", 1));
  // Flight recorder: --flight-dir arms it (one ring per child
  // incarnation, harvested post-mortem); --flight-slots sizes the ring.
  const std::string flight_dir = flags.GetString("flight-dir");
  const std::size_t flight_slots =
      flight_dir.empty()
          ? 0
          : static_cast<std::size_t>(std::max<std::int64_t>(
                1, flags.GetInt("flight-slots",
                                obs::FlightRecorder::kDefaultSlots)));
  const std::string trace_dir = flags.GetString("trace-dir");

  // Every child binds the SAME port for SO_REUSEPORT balancing; holding a
  // socket on it reserves that port, an ephemeral one included.
  int port = 0;
  const int port_holder = BindPortHolder(host, requested_port, &port);
  if (port_holder < 0) {
    JsonLogLine("spta_fleet", "bind_failed")
        .Str("host", host)
        .Int("port", requested_port)
        .Str("error", std::strerror(errno))
        .Emit();
    return 2;
  }
  JsonLogLine("spta_fleet", "bound").Str("host", host).Int("port", port).Emit();

  std::vector<std::string> child_args = {
      "--tcp",     std::to_string(port),
      "--host",    host,
      "--shards",  std::to_string(shards),
      "--backlog", std::to_string(backlog),
      "--reuseport"};
  if (!cache_dir.empty()) {
    child_args.push_back("--cache-dir");
    child_args.push_back(cache_dir);
  }
  if (!trace_dir.empty()) {
    // Each child exports trace-<pid>.json there at exit; the supervisor
    // merges the directory into trace-merged.json when the fleet is done.
    child_args.push_back("--trace-dir");
    child_args.push_back(trace_dir);
  }
  // Cache bounds ride along to every child: the LRU byte budget and the
  // ENOSPC simulation quota are fleet-wide policy, not per-process tuning.
  for (const char* bound : {"cache-max-bytes", "cache-quota-bytes"}) {
    if (flags.Has(bound)) {
      child_args.push_back(std::string("--") + bound);
      child_args.push_back(std::to_string(flags.GetInt(bound, 0)));
    }
  }
  for (const std::string& extra : flags.positional()) {
    child_args.push_back(extra);
  }

  sigset_t mask = SupervisorSigset();
  ::sigprocmask(SIG_BLOCK, &mask, nullptr);

  const std::string health_frame = HealthFrame();
  const std::int64_t start_ms = NowMs();

  std::vector<Child> children(static_cast<std::size_t>(procs));
  for (std::size_t i = 0; i < children.size(); ++i) {
    Child& child = children[i];
    const SpawnResult spawned =
        SpawnChild(serve_bin, child_args, i, flight_slots);
    child.pid = spawned.pid;
    child.health_fd = spawned.health_fd;
    child.flight_fd = spawned.flight_fd;
    child.spawned_ms = NowMs();
    if (child.pid < 0) {
      child.gave_up = true;
      continue;
    }
    if (watchdog_interval_ms > 0) {
      child.next_probe_ms =
          child.spawned_ms +
          ProbeDelayMs(HashCombine(watchdog_seed, i), ++child.probe_counter,
                       watchdog_interval_ms);
    }
  }
  JsonLogLine("spta_fleet", "start")
      .Int("procs", procs)
      .Int("shards", shards)
      .Str("host", host)
      .Int("port", port)
      .Emit();

  bool terminate = false;
  bool forwarded = false;
  bool dirty_after_drain = false;
  for (;;) {
    const std::int64_t now = NowMs();

    // Reap everything that has exited. SIGCHLD coalesces, so one wake-up
    // may cover several deaths — drain with WNOHANG until empty.
    for (;;) {
      int status = 0;
      const pid_t done = ::waitpid(-1, &status, WNOHANG);
      if (done <= 0) break;
      for (std::size_t i = 0; i < children.size(); ++i) {
        Child& child = children[i];
        if (child.pid != done) continue;
        if (child.health_fd >= 0) {
          ::close(child.health_fd);
          child.health_fd = -1;
        }
        // The incarnation is fully dead (waitpid returned it), so its
        // ring holds the final bytes it ever wrote — harvest now, before
        // a respawn replaces the fd with a fresh ring.
        HarvestFlight(&child, done, flight_dir);
        child.probe_deadline_ms = 0;
        child.pid = -1;
        const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        if (clean || forwarded) {
          child.clean_exit = true;
          if (!clean) dirty_after_drain = true;
          JsonLogLine("spta_fleet", "exited")
              .Int("child_pid", done)
              .Str("outcome", clean ? "clean" : "dirty")
              .Emit();
          break;
        }
        if (child.respawns >= respawn_limit) {
          child.gave_up = true;
          JsonLogLine("spta_fleet", "respawn_limit")
              .Int("child_pid", done)
              .Int("limit", respawn_limit)
              .Emit();
          break;
        }
        ++child.respawns;
        const std::int64_t uptime = now - child.spawned_ms;
        if (uptime < min_uptime_ms) {
          // Crash loop: delay the respawn so a broken child burns
          // wall-clock, not its whole budget. The schedule is per-child,
          // seeded, and survives across its deaths.
          if (!child.backoff) {
            service::RetryPolicy policy;
            policy.base = std::chrono::milliseconds(respawn_base_ms);
            policy.cap = std::chrono::milliseconds(respawn_cap_ms);
            policy.seed = HashCombine(backoff_seed, i);
            child.backoff =
                std::make_unique<service::RetrySchedule>(policy);
          }
          const std::int64_t delay = child.backoff->NextDelay().count();
          child.respawn_due_ms = now + delay;
          JsonLogLine("spta_fleet", "crash_loop_respawn")
              .Int("child_pid", done)
              .Int("uptime_ms", uptime)
              .Int("respawn", child.respawns)
              .Int("limit", respawn_limit)
              .Int("delay_ms", delay)
              .Emit();
        } else {
          // A run that held steady earns an immediate respawn and a
          // fresh backoff schedule.
          child.backoff.reset();
          child.respawn_due_ms = now;
          JsonLogLine("spta_fleet", "respawn")
              .Int("child_pid", done)
              .Int("respawn", child.respawns)
              .Int("limit", respawn_limit)
              .Emit();
        }
        break;
      }
    }

    if (terminate && !forwarded) {
      forwarded = true;
      JsonLogLine("spta_fleet", "forwarding_sigterm").Emit();
      for (Child& child : children) {
        child.respawn_due_ms = 0;  // Draining: no more respawns.
        if (child.pid > 0 && !child.clean_exit && !child.gave_up) {
          ::kill(child.pid, SIGTERM);
          // A SIGSTOPped (chaos-wedged) child cannot process SIGTERM;
          // SIGCONT lets the drain reach it.
          ::kill(child.pid, SIGCONT);
        }
      }
    }

    // Fire respawns whose backoff has elapsed.
    if (!forwarded) {
      for (std::size_t i = 0; i < children.size(); ++i) {
        Child& child = children[i];
        if (child.respawn_due_ms == 0 || now < child.respawn_due_ms) {
          continue;
        }
        child.respawn_due_ms = 0;
        const SpawnResult spawned =
            SpawnChild(serve_bin, child_args, i, flight_slots);
        child.pid = spawned.pid;
        child.health_fd = spawned.health_fd;
        child.flight_fd = spawned.flight_fd;
        child.spawned_ms = now;
        child.probe_deadline_ms = 0;
        if (child.pid < 0) {
          child.gave_up = true;
          continue;
        }
        if (watchdog_interval_ms > 0) {
          child.next_probe_ms =
              now + ProbeDelayMs(HashCombine(watchdog_seed, i),
                                 ++child.probe_counter,
                                 watchdog_interval_ms);
        }
      }
    }

    // Watchdog pass: drain replies, kill the wedged, launch due probes.
    // Idle during drain — a child busy finishing its backlog is not
    // wedged, and SIGKILL would turn a clean drain dirty.
    if (watchdog_interval_ms > 0 && !forwarded) {
      for (std::size_t i = 0; i < children.size(); ++i) {
        Child& child = children[i];
        if (child.pid <= 0 || child.health_fd < 0 || child.clean_exit ||
            child.gave_up) {
          continue;
        }
        char buffer[512];
        ssize_t n = 0;
        bool got_reply = false;
        while ((n = ::read(child.health_fd, buffer, sizeof(buffer))) > 0) {
          got_reply = true;  // Any reply bytes prove the loop is alive.
        }
        if (n == 0) {
          // EOF: the child closed its end (it is exiting); the reaper
          // owns what happens next.
          ::close(child.health_fd);
          child.health_fd = -1;
          continue;
        }
        if (got_reply && child.probe_deadline_ms > 0) {
          child.probe_deadline_ms = 0;
          child.next_probe_ms =
              now + ProbeDelayMs(HashCombine(watchdog_seed, i),
                                 ++child.probe_counter,
                                 watchdog_interval_ms);
        }
        if (child.probe_deadline_ms > 0 &&
            now >= child.probe_deadline_ms) {
          // Alive but unresponsive (wedged): SIGKILL works even on a
          // stopped process; the reaper routes it through respawn — and
          // harvests the flight ring, so the spans leading up to the
          // wedge survive the kill.
          JsonLogLine("spta_fleet", "unresponsive")
              .Int("child_pid", child.pid)
              .Int("timeout_ms", watchdog_timeout_ms)
              .Emit();
          ::kill(child.pid, SIGKILL);
          child.probe_deadline_ms = 0;
          child.next_probe_ms = now + watchdog_timeout_ms;
        } else if (child.probe_deadline_ms == 0 &&
                   now >= child.next_probe_ms) {
          // Fire one probe. A short/failed write is itself a wedge
          // symptom (the socketpair buffer only fills when the child
          // stops reading) — the probe simply times out.
          [[maybe_unused]] const ssize_t written = ::write(
              child.health_fd, health_frame.data(), health_frame.size());
          child.probe_deadline_ms = now + watchdog_timeout_ms;
        }
      }
    }

    bool anyone_pending = false;
    for (const Child& child : children) {
      if (child.clean_exit || child.gave_up) continue;
      if (child.pid > 0 || child.respawn_due_ms > 0) anyone_pending = true;
    }
    if (!anyone_pending) break;

    // Sleep until the next timed event (probe, probe deadline, respawn)
    // or a blocked signal. A child that exited before this point left
    // SIGCHLD pending (the set stays blocked), so the wait returns
    // immediately — no lost-wakeup window exists.
    std::int64_t wake = now + 1000;
    for (const Child& child : children) {
      if (child.clean_exit || child.gave_up) continue;
      if (child.respawn_due_ms > 0) {
        wake = std::min(wake, child.respawn_due_ms);
      }
      if (watchdog_interval_ms > 0 && !forwarded && child.pid > 0 &&
          child.health_fd >= 0) {
        wake = std::min(wake, child.probe_deadline_ms > 0
                                  ? child.probe_deadline_ms
                                  : child.next_probe_ms);
      }
    }
    const std::int64_t sleep_ms = std::max<std::int64_t>(
        0, std::min<std::int64_t>(wake - now, 1000));
    timespec timeout{};
    timeout.tv_sec = sleep_ms / 1000;
    timeout.tv_nsec = (sleep_ms % 1000) * 1000000;
    const int sig = ::sigtimedwait(&mask, nullptr, &timeout);
    if (sig == SIGTERM || sig == SIGINT) terminate = true;
  }

  // Rings whose child never got reaped (fork failed after creation, or a
  // give-up path) still need closing; nothing to harvest from a child
  // that never ran.
  for (Child& child : children) {
    if (child.flight_fd >= 0) {
      ::close(child.flight_fd);
      child.flight_fd = -1;
    }
  }

  // One Perfetto-loadable trace for the whole run: splice every child's
  // trace-<pid>.json (they all exported on their way out) into
  // trace-merged.json. Exports land via atomic rename, so a file that
  // exists is complete.
  if (!trace_dir.empty()) {
    std::vector<std::string> exports;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(trace_dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("trace-", 0) == 0 && name != "trace-merged.json" &&
          name.size() > 5 && name.compare(name.size() - 5, 5, ".json") == 0) {
        exports.push_back(entry.path().string());
      }
    }
    std::sort(exports.begin(), exports.end());
    const std::string merged_path = trace_dir + "/trace-merged.json";
    std::size_t merged = 0;
    std::string error;
    JsonLogLine log("spta_fleet", "trace_merged");
    if (obs::MergeChromeTraceFiles(exports, merged_path, &merged, &error)) {
      log.Str("path", merged_path)
          .Int("inputs", static_cast<std::int64_t>(exports.size()))
          .Int("merged", static_cast<std::int64_t>(merged));
    } else {
      log.Str("path", merged_path).Str("write_error", error);
    }
    log.Emit();
  }

  bool any_gave_up = false;
  for (const Child& child : children) {
    if (child.gave_up) any_gave_up = true;
  }
  JsonLogLine("spta_fleet", "done")
      .Int("elapsed_ms", NowMs() - start_ms)
      .Str("outcome",
           (any_gave_up || dirty_after_drain) ? "degraded" : "ok")
      .Emit();
  ::close(port_holder);
  return (any_gave_up || dirty_after_drain) ? 1 : 0;
}
