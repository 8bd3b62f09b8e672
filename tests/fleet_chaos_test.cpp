// Deterministic chaos soak against a REAL spta_fleet process tree.
//
// Where service_fleet_test exercises the in-process ShardedServer, this
// battery forks the actual supervisor binary (SPTA_FLEET_PATH) with real
// spta_serve children and drives a seeded fault::FleetChaosPlan at it:
// SIGKILLed children (crash injection), SIGSTOPped children (wedged —
// watchdog bait), and a disk-full leg (--cache-quota-bytes puts every
// child's persistent cache into simulated ENOSPC, which must degrade to
// memory-only, never corrupt). Throughout, a resilient driver issues a
// mixed request soak and the test asserts the self-healing contract:
//
//   * zero lost acked requests — every request is eventually answered,
//     through reconnect + resend when a child dies mid-connection;
//   * bit-identical ANALYZE responses vs an in-process batch reference
//     (chaos may slow the fleet down; it must never change an answer);
//   * a wedged child is detected by the watchdog and respawned within a
//     bounded number of probes;
//   * SIGTERM after the chaos drains the whole tree to exit 0 — chaos
//     respawns do not poison the exit code;
//   * a crash-looping child burns wall-clock (seeded backoff), not its
//     respawn budget, and the fleet reports degraded (exit 1).
//
// The chaos schedule is a pure function of the campaign seed: a failure
// here replays with the same kills in the same order.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>

#include <gtest/gtest.h>

#include "common/hash.hpp"
#include "fault/io_plan.hpp"
#include "mbpta/per_path.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

#ifndef SPTA_FLEET_PATH
#error "SPTA_FLEET_PATH must point at the spta_fleet binary"
#endif

namespace {

using namespace spta;

std::int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Uniform-ish jitter in [10000, 10500): passes the IID gate, fits
/// cleanly — the same shape the rest of the service battery uses.
std::vector<mbpta::PathObservation> MakeSample(std::size_t n,
                                               std::uint64_t seed) {
  std::vector<mbpta::PathObservation> sample(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t bits = Mix64(HashCombine(seed, i));
    sample[i].time =
        10000.0 + 500.0 * (static_cast<double>(bits >> 11) * 0x1.0p-53);
    sample[i].path_id = 0;
  }
  return sample;
}

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/spta_chaos_cache_XXXXXX";
    if (::mkdtemp(tmpl) != nullptr) path_ = tmpl;
  }
  ~TempDir() {
    if (path_.empty()) return;
    if (DIR* dir = ::opendir(path_.c_str())) {
      while (dirent* entry = ::readdir(dir)) {
        const std::string name = entry->d_name;
        if (name == "." || name == "..") continue;
        ::unlink((path_ + "/" + name).c_str());
      }
      ::closedir(dir);
    }
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Extracts the integer value of a `"key":N` field from a one-line JSON
/// log record. Returns false when the key is absent.
bool JsonInt(const std::string& line, const std::string& key, long* value) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  *value = std::strtol(line.c_str() + at + needle.size(), nullptr, 10);
  return true;
}

bool JsonEventIs(const std::string& line, const char* event) {
  return line.find(std::string("\"event\":\"") + event + "\"") !=
         std::string::npos;
}

/// The spta_fleet process under test, with its stderr on a pipe. The
/// supervisor's structured one-line-JSON log is its observable behavior:
/// `"event":"spawned"` / `"event":"exited"` records track the live
/// children, `"event":"unresponsive"` proves the watchdog fired, and
/// `"event":"flight_harvest"` proves a dead child's flight ring was
/// recovered. Pump() drains the pipe; the parsers below are
/// line-oriented and tolerate partial reads (the tail is kept).
class FleetProcess {
 public:
  bool Start(const std::vector<std::string>& args) {
    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0) return false;
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      // Its own process group, so the destructor's killpg also reaches the
      // spta_serve children a failed test leaves behind.
      ::setpgid(0, 0);
      ::dup2(fds[1], 2);
      ::close(fds[0]);
      ::close(fds[1]);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(static_cast<const char*>(
          SPTA_FLEET_PATH)));
      for (const std::string& arg : args) {
        argv.push_back(const_cast<char*>(arg.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(SPTA_FLEET_PATH, argv.data());
      ::_exit(127);
    }
    ::setpgid(pid_, pid_);  // Either side may run first; both set it.
    ::close(fds[1]);
    err_fd_ = fds[0];
    ::fcntl(err_fd_, F_SETFL, O_NONBLOCK);
    return true;
  }

  ~FleetProcess() {
    if (pid_ > 0) ::killpg(pid_, SIGKILL);
    if (pid_ > 0) ::waitpid(pid_, nullptr, 0);
    if (err_fd_ >= 0) ::close(err_fd_);
  }

  void Pump() {
    char buffer[4096];
    ssize_t n = 0;
    while (err_fd_ >= 0 &&
           (n = ::read(err_fd_, buffer, sizeof(buffer))) > 0) {
      log_.append(buffer, static_cast<std::size_t>(n));
    }
    // Parse complete lines only; keep the tail for the next Pump.
    std::size_t start = parsed_;
    for (;;) {
      const std::size_t eol = log_.find('\n', start);
      if (eol == std::string::npos) break;
      ParseLine(log_.substr(start, eol - start));
      start = eol + 1;
    }
    parsed_ = start;
  }

  std::vector<pid_t> AlivePids() {
    Pump();
    return alive_;
  }

  /// The port of the supervisor's `"event":"bound"` record, waiting up to
  /// `deadline_ms` for it; -1 when it never appears.
  int WaitBoundPort(std::int64_t deadline_ms) {
    const std::int64_t until = NowMs() + deadline_ms;
    for (Pump(); port_ <= 0 && NowMs() < until; Pump()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return port_ > 0 ? port_ : -1;
  }

  std::size_t spawned_total() const { return spawned_total_; }
  std::size_t unresponsive_total() const { return unresponsive_total_; }
  std::size_t flight_harvests() const { return flight_harvests_; }
  std::size_t flight_harvests_valid() const { return flight_harvests_valid_; }
  const std::string& log() const { return log_; }
  pid_t pid() const { return pid_; }

  /// Reaps the supervisor with a deadline; returns the exit status or -1.
  int WaitExit(std::int64_t deadline_ms) {
    const std::int64_t until = NowMs() + deadline_ms;
    int status = 0;
    while (NowMs() < until) {
      const pid_t done = ::waitpid(pid_, &status, WNOHANG);
      if (done == pid_) {
        pid_ = -1;
        Pump();
        return status;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return -1;
  }

 private:
  void ParseLine(const std::string& line) {
    long port = 0;
    if (JsonEventIs(line, "bound") && JsonInt(line, "port", &port)) {
      port_ = static_cast<int>(port);
      return;
    }
    long child = 0;
    if (!JsonInt(line, "child_pid", &child)) return;
    const pid_t parsed = static_cast<pid_t>(child);
    if (JsonEventIs(line, "spawned")) {
      ++spawned_total_;
      alive_.push_back(parsed);
      return;
    }
    if (JsonEventIs(line, "unresponsive")) {
      ++unresponsive_total_;
      return;  // Still alive until the reaper logs the exit.
    }
    if (JsonEventIs(line, "flight_harvest")) {
      ++flight_harvests_;
      long valid = 0;
      if (JsonInt(line, "valid", &valid) && valid == 1) {
        ++flight_harvests_valid_;
      }
      return;
    }
    // Death notices: a drained/given-up child logs `exited` /
    // `respawn_limit`; a chaos casualty that will be replaced logs
    // `respawn` / `crash_loop_respawn`. All four mean the pid is gone.
    if (JsonEventIs(line, "exited") || JsonEventIs(line, "respawn") ||
        JsonEventIs(line, "crash_loop_respawn") ||
        JsonEventIs(line, "respawn_limit")) {
      for (std::size_t i = 0; i < alive_.size(); ++i) {
        if (alive_[i] == parsed) {
          alive_.erase(alive_.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    }
  }

  pid_t pid_ = -1;
  int err_fd_ = -1;
  std::string log_;
  std::size_t parsed_ = 0;
  std::vector<pid_t> alive_;
  int port_ = -1;
  std::size_t spawned_total_ = 0;
  std::size_t unresponsive_total_ = 0;
  std::size_t flight_harvests_ = 0;
  std::size_t flight_harvests_valid_ = 0;
};

/// Issues requests against the fleet port, reconnecting and RESENDING on
/// transport failure: an acked request is never lost, an unacked one is
/// retried until the fleet heals. The generous attempt budget covers the
/// worst healing path (watchdog detect + SIGKILL + respawn + rebind).
class ResilientDriver {
 public:
  explicit ResilientDriver(int port) : port_(port) {}

  service::Response Call(const service::Request& request) {
    for (int attempt = 0; attempt < 200; ++attempt) {
      if (!EnsureConnected()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      service::Response response = client_->Call(request);
      if (response.ok) {
        ++acked_;
        return response;
      }
      const std::string code = response.args.GetString("code");
      if (code == "transport") {
        // The child died (or was wedged past the IO timeout) with our
        // request possibly unacked: drop the connection, resend.
        Disconnect();
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      ++acked_;  // A definitive ERR is still an ack (nothing was lost).
      return response;
    }
    return service::ErrResponse("transport", "fleet never healed");
  }

  std::uint64_t acked() const { return acked_; }

  void Disconnect() { client_.reset(); }

 private:
  bool EnsureConnected() {
    if (client_) return true;
    std::string error;
    client_ = service::Client::ConnectTcp(
        "127.0.0.1", static_cast<std::uint16_t>(port_), &error, 2000.0);
    return client_ != nullptr;
  }

  int port_;
  std::unique_ptr<service::Client> client_;
  std::uint64_t acked_ = 0;
};

/// Counts `flight-*.json` dumps harvested into `dir`.
std::size_t CountFlightDumps(const std::string& dir) {
  std::size_t count = 0;
  if (DIR* handle = ::opendir(dir.c_str())) {
    while (dirent* entry = ::readdir(handle)) {
      const std::string name = entry->d_name;
      if (name.rfind("flight-", 0) == 0 &&
          name.size() > 5 && name.substr(name.size() - 5) == ".json") {
        ++count;
      }
    }
    ::closedir(handle);
  }
  return count;
}

service::Request InlineAnalyze(const std::vector<mbpta::PathObservation>&
                                   sample) {
  service::Request request;
  request.kind = service::RequestKind::kAnalyze;
  request.args.SetUint("count", sample.size());
  request.payload = service::EncodeSamplePayload(sample);
  return request;
}

/// The batch reference: the same engine, in process, no chaos. Responses
/// are memoized per sample seed; analyze_us is timing noise, everything
/// else must match the fleet's answer bit for bit.
class BatchReference {
 public:
  BatchReference() : server_(service::ServerOptions{}, engine_) {}

  const service::Response& For(std::uint64_t seed, std::size_t n) {
    auto it = memo_.find(seed);
    if (it != memo_.end()) return it->second;
    service::Response response = server_.Execute(InlineAnalyze(
        MakeSample(n, seed)));
    return memo_.emplace(seed, std::move(response)).first->second;
  }

 private:
  service::AnalysisEngine engine_;
  service::Server server_;
  std::map<std::uint64_t, service::Response> memo_;
};

void ExpectMatchesReference(const service::Response& got,
                            const service::Response& want,
                            std::uint64_t seed) {
  ASSERT_TRUE(got.ok) << "seed " << seed << ": " << got.payload;
  ASSERT_TRUE(want.ok);
  EXPECT_EQ(got.args.GetString("pwcet"), want.args.GetString("pwcet"))
      << "seed " << seed;
  EXPECT_EQ(got.args.GetString("n"), want.args.GetString("n"))
      << "seed " << seed;
  EXPECT_EQ(got.payload, want.payload) << "seed " << seed;
}

TEST(FleetChaosTest, SoakLosesNoAckedRequestsAndMatchesBatch) {
  std::signal(SIGPIPE, SIG_IGN);
  TempDir cache_dir;
  ASSERT_FALSE(cache_dir.path().empty());
  TempDir flight_dir;
  ASSERT_FALSE(flight_dir.path().empty());

  // Aggressive healing knobs so the whole soak (chaos + recoveries +
  // drain) fits a test budget: 100 ms probe spacing, 300 ms wedge
  // verdict. --cache-quota-bytes is the standing disk-full leg — every
  // child's persistent cache trips simulated ENOSPC almost immediately
  // and must degrade to memory-only while answers stay correct.
  FleetProcess fleet;
  ASSERT_TRUE(fleet.Start({
      "--tcp", "0", "--procs", "2", "--shards", "1",
      "--cache-dir", cache_dir.path(), "--cache-quota-bytes", "4096",
      "--flight-dir", flight_dir.path(),
      "--respawn-limit", "100", "--min-uptime-ms", "50",
      "--respawn-base-ms", "20", "--respawn-cap-ms", "200",
      "--watchdog-interval-ms", "100", "--watchdog-timeout-ms", "300",
      "--watchdog-seed", "7", "--backoff-seed", "7"}));
  // The supervisor binds the port and logs it before spawning anyone.
  const int port = fleet.WaitBoundPort(10000);
  ASSERT_GT(port, 0) << fleet.log();

  ResilientDriver driver(port);
  BatchReference reference;

  // Wait for the fleet to serve at all before the storm starts.
  service::Request readiness;
  readiness.kind = service::RequestKind::kPing;
  ASSERT_TRUE(driver.Call(readiness).ok) << "fleet never came up";

  fault::FleetChaosConfig chaos;
  chaos.kill_rate = 0.04;
  chaos.wedge_rate = 0.02;
  chaos.disk_full_rate = 0.03;
  fault::FleetChaosPlan plan(chaos, /*campaign_seed=*/20260809);

  const std::size_t kSteps = 210;
  const std::size_t kSampleN = 260;
  std::size_t kills = 0;
  std::size_t wedges = 0;
  std::uint64_t issued = 1;  // The readiness ping above.
  std::uint64_t next_unique_seed = 5000;
  // A pid already hit by chaos is skipped until the supervisor replaces
  // it (a second signal would not cause a second respawn, which would
  // break the spawned >= casualties accounting below).
  std::vector<pid_t> chaosed;
  const auto fresh_target = [&chaosed](pid_t pid) {
    for (const pid_t hit : chaosed) {
      if (hit == pid) return false;
    }
    return true;
  };

  for (std::size_t step = 0; step < kSteps; ++step) {
    std::vector<pid_t> alive = fleet.AlivePids();
    const auto decision = plan.Next(alive.size());
    if (decision.action == fault::FleetChaosAction::kKillChild) {
      const pid_t victim = alive[decision.target];
      if (fresh_target(victim) && ::kill(victim, SIGKILL) == 0) {
        ++kills;
        chaosed.push_back(victim);
      }
    } else if (decision.action == fault::FleetChaosAction::kWedgeChild) {
      const pid_t victim = alive[decision.target];
      if (fresh_target(victim) && ::kill(victim, SIGSTOP) == 0) {
        ++wedges;
        chaosed.push_back(victim);
      }
    } else if (decision.action == fault::FleetChaosAction::kDiskFull) {
      // Push fresh entries at the quota'd cache: unique analyses force
      // Put() into the simulated-ENOSPC path on whichever child serves
      // them. The answers must still match the batch reference.
      const std::uint64_t seed = next_unique_seed++;
      const auto got = driver.Call(InlineAnalyze(MakeSample(kSampleN, seed)));
      ++issued;
      ExpectMatchesReference(got, reference.For(seed, kSampleN), seed);
    }

    // The step's regular soak request: a deterministic kind mix.
    switch (step % 5) {
      case 0: {
        service::Request ping;
        ping.kind = service::RequestKind::kPing;
        EXPECT_TRUE(driver.Call(ping).ok);
        break;
      }
      case 1: {
        service::Request health;
        health.kind = service::RequestKind::kHealth;
        const auto response = driver.Call(health);
        EXPECT_TRUE(response.ok) << response.payload;
        EXPECT_EQ(response.args.GetString("role"), "fleet");
        break;
      }
      case 2: {
        service::Request metrics;
        metrics.kind = service::RequestKind::kMetrics;
        EXPECT_TRUE(driver.Call(metrics).ok);
        break;
      }
      default: {
        // A small rotating pool: re-analyses exercise memo/warm paths
        // across respawns; each must equal the batch answer.
        const std::uint64_t seed = 100 + (step % 7);
        const auto got =
            driver.Call(InlineAnalyze(MakeSample(kSampleN, seed)));
        ExpectMatchesReference(got, reference.For(seed, kSampleN), seed);
        break;
      }
    }
    ++issued;
  }

  EXPECT_GE(issued, 200u) << "soak volume contract";
  EXPECT_EQ(driver.acked(), issued) << "every request must be acked";
  EXPECT_GE(kills + wedges, 3u) << "the chaos schedule must actually bite";
  EXPECT_GE(plan.faults_fired(), kills + wedges);

  // Dedicated wedge: SIGSTOP one child and require the watchdog to
  // detect and replace it within a bounded number of probes (100 ms
  // spacing + 300 ms verdict + respawn — 5 s is many probes of slack).
  // A casualty of the last chaos steps may still be listed as alive, and
  // may be reaped and replaced at any moment, so first wait until every
  // casualty is gone from the log; then the counters below move only for
  // this wedge, and its target is a child no signal has touched.
  std::vector<pid_t> alive;
  const std::int64_t settle_deadline = NowMs() + 5000;
  for (;;) {
    alive = fleet.AlivePids();
    if (!alive.empty() &&
        std::all_of(alive.begin(), alive.end(), fresh_target)) {
      break;
    }
    ASSERT_LT(NowMs(), settle_deadline)
        << "chaos casualties were never replaced\n"
        << fleet.log();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const pid_t wedged = alive.front();
  const std::size_t unresponsive_before = fleet.unresponsive_total();
  const std::size_t spawned_before = fleet.spawned_total();
  ASSERT_EQ(::kill(wedged, SIGSTOP), 0) << fleet.log();
  const std::int64_t wedge_deadline = NowMs() + 5000;
  while (NowMs() < wedge_deadline &&
         fleet.spawned_total() <= spawned_before) {
    fleet.Pump();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GT(fleet.unresponsive_total(), unresponsive_before)
      << "watchdog never flagged the wedged child\n"
      << fleet.log();
  EXPECT_GT(fleet.spawned_total(), spawned_before)
      << "wedged child was never replaced\n"
      << fleet.log();

  // Post-chaos health: the fleet serves again, and the supervisor kept
  // every replacement inside the respawn budget (no gave-up children).
  service::Request ping;
  ping.kind = service::RequestKind::kPing;
  EXPECT_TRUE(driver.Call(ping).ok);
  driver.Disconnect();

  // Graceful drain: chaos respawns must not poison the exit code.
  ASSERT_EQ(::kill(fleet.pid(), SIGTERM), 0);
  const int status = fleet.WaitExit(15000);
  ASSERT_NE(status, -1) << "fleet did not drain in time\n" << fleet.log();
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "exit status " << status << "\n"
      << fleet.log();
  EXPECT_GE(fleet.spawned_total(), 2u + kills + wedges)
      << "every chaos casualty must have been respawned\n"
      << fleet.log();

  // Flight-recorder contract: every reaped child — SIGKILLed mid-soak,
  // watchdog-killed while wedged, or drained at SIGTERM — left a
  // harvested Chrome-trace dump behind, and the harvests parsed as valid
  // rings (a torn in-flight record is tolerated; a corrupt ring is not).
  EXPECT_GE(fleet.flight_harvests(), 2u + kills + wedges)
      << "every reaped child must be harvested\n"
      << fleet.log();
  EXPECT_EQ(fleet.flight_harvests_valid(), fleet.flight_harvests())
      << "every harvested ring must carry the valid magic/layout\n"
      << fleet.log();
  EXPECT_GE(CountFlightDumps(flight_dir.path()), 2u + kills)
      << "flight dumps missing from " << flight_dir.path() << "\n"
      << fleet.log();
}

TEST(FleetChaosTest, CrashLoopBackoffHoldsBudget) {
  // A child whose binary cannot exec dies within min-uptime every time:
  // the supervisor must treat it as a crash loop and spend WALL-CLOCK
  // (seeded decorrelated-jitter backoff, >= base per respawn), not burn
  // the budget in a tight fork loop. With base 80 ms and 4 respawns the
  // run cannot finish faster than ~320 ms; without the backoff it
  // finishes in single-digit milliseconds.
  FleetProcess fleet;
  const std::int64_t started = NowMs();
  ASSERT_TRUE(fleet.Start({
      "--tcp", "0", "--procs", "1",
      "--serve-bin", "/nonexistent/spta_serve_missing",
      "--respawn-limit", "4", "--min-uptime-ms", "1000",
      "--respawn-base-ms", "80", "--respawn-cap-ms", "400",
      "--watchdog-interval-ms", "0", "--backoff-seed", "11"}));
  const int status = fleet.WaitExit(20000);
  const std::int64_t elapsed = NowMs() - started;
  ASSERT_NE(status, -1) << "crash-looping fleet never gave up\n"
                        << fleet.log();
  // Degraded wind-down: respawn limit hit => exit 1.
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 1)
      << "exit status " << status << "\n"
      << fleet.log();
  // Initial spawn + exactly the budgeted respawns — the backoff did not
  // let the loop spin past its limit, and the limit was honored.
  EXPECT_EQ(fleet.spawned_total(), 5u) << fleet.log();
  EXPECT_GE(elapsed, 300) << "respawn budget was burned without backoff\n"
                          << fleet.log();
  EXPECT_NE(fleet.log().find("\"event\":\"crash_loop_respawn\""),
            std::string::npos);
  EXPECT_NE(fleet.log().find("\"event\":\"respawn_limit\""),
            std::string::npos);
}

}  // namespace
