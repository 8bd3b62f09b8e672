// spta_fleet_smoke — self-contained fleet smoke check (no spta_cli, no
// external daemon): boots a 2-shard ShardedServer on an ephemeral TCP
// port, drives 100 mixed requests (PING / OPEN / APPEND / STATUS /
// session ANALYZE / inline ANALYZE / METRICS / CLOSE) through a real
// client connection, verifies every response, then performs the graceful
// SHUTDOWN drain and checks the fleet acked it. Exit 0 = pass, 1 = fail.
//
// When given the path to the spta_fleet binary as argv[1] it also runs a
// supervisor leg: spawn a real 2-process fleet, confirm it serves, send
// SIGTERM, and require the whole tree to drain to exit 0 within a
// deadline. This pins the signal path specifically — the supervisor once
// sat in a SA_RESTARTed waitpid() and never forwarded the signal, a hang
// the in-process leg cannot see.
//
// Wired as a ctest (label: service) so a plain `ctest -L service` proves
// the epoll loop + shard routing + drain path end to end on every run.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "mbpta/per_path.hpp"
#include "service/client.hpp"
#include "service/sharded_server.hpp"

namespace {

using namespace spta;

/// Uniform-ish jitter in [10000, 10500): same shape the service tests
/// feed the EVT pipeline — passes the IID gate, fits cleanly.
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

#define SMOKE_CHECK(cond, what)                                      \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "spta_fleet_smoke: FAIL: %s\n", (what));  \
      return 1;                                                      \
    }                                                                \
  } while (0)

/// Copies whatever the fleet has logged so far (non-blocking `fd`) to our
/// stderr, keeping the pipe from filling; appends it to `log`.
void DrainLog(int fd, std::string* log) {
  char buffer[4096];
  ssize_t n = 0;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0) {
    log->append(buffer, static_cast<std::size_t>(n));
    (void)!::write(2, buffer, static_cast<std::size_t>(n));
  }
}

/// The port of the fleet's `"event":"bound"` log line, waiting up to
/// ~10 s for it to appear on `fd`. Returns -1 when it never does.
int WaitBoundPort(int fd, std::string* log) {
  for (int waited_ms = 0; waited_ms < 10 * 1000; waited_ms += 20) {
    DrainLog(fd, log);
    for (std::size_t start = 0, eol = 0;
         (eol = log->find('\n', start)) != std::string::npos;
         start = eol + 1) {
      const std::string line = log->substr(start, eol - start);
      const std::size_t at = line.find("\"port\":");
      if (line.find("\"event\":\"bound\"") != std::string::npos &&
          at != std::string::npos) {
        return std::atoi(line.c_str() + at + 7);
      }
    }
    ::usleep(20 * 1000);
  }
  return -1;
}

/// Spawns `spta_fleet --tcp 0 --procs 2 --shards 1`, reads the port it
/// bound from its log, waits for it to answer a PING, SIGTERMs it, and
/// requires exit 0 within ~10 s. Returns 0 on pass. A supervisor that
/// never forwards the signal fails the deadline here instead of hanging
/// ctest.
int SupervisorSigtermLeg(const char* fleet_bin) {
  int fds[2] = {-1, -1};
  SMOKE_CHECK(::pipe(fds) == 0, "supervisor: log pipe");
  const pid_t pid = ::fork();
  SMOKE_CHECK(pid >= 0, "supervisor: fork");
  if (pid == 0) {
    // Its own process group: the failure paths' killpg then also reaches
    // the supervisor's spta_serve children.
    ::setpgid(0, 0);
    ::dup2(fds[1], 2);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execl(fleet_bin, fleet_bin, "--tcp", "0", "--procs", "2", "--shards",
            "1", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::setpgid(pid, pid);  // Either side may run first; both set it.
  ::close(fds[1]);
  const int log_fd = fds[0];
  ::fcntl(log_fd, F_SETFL, O_NONBLOCK);
  std::string log;
  const int port = WaitBoundPort(log_fd, &log);
  if (port <= 0) ::killpg(pid, SIGKILL);
  SMOKE_CHECK(port > 0, "supervisor: bound port logged");

  // Serve check: children need a moment to bind; retry the connect.
  bool served = false;
  for (int attempt = 0; attempt < 100 && !served; ++attempt) {
    std::string error;
    const auto client = service::Client::ConnectTcp(
        "127.0.0.1", static_cast<std::uint16_t>(port), &error, 2000.0);
    if (!client) {
      ::usleep(50 * 1000);
      continue;
    }
    served = client->Ping().ok;
  }
  DrainLog(log_fd, &log);
  if (!served) ::killpg(pid, SIGKILL);
  SMOKE_CHECK(served, "supervisor: fleet serves PING");
  // One child answering says nothing about the other: a SIGTERM that
  // reaches a child before it installed its handlers kills it dirty. Each
  // child logs "listening on" only after installing them.
  const auto listening = [&log] {
    std::size_t count = 0;
    for (std::size_t at = 0;
         (at = log.find("spta_serve: listening on", at)) != std::string::npos;
         ++at) {
      ++count;
    }
    return count;
  };
  for (int waited_ms = 0; listening() < 2 && waited_ms < 10 * 1000;
       waited_ms += 20) {
    ::usleep(20 * 1000);
    DrainLog(log_fd, &log);
  }
  if (listening() < 2) ::killpg(pid, SIGKILL);
  SMOKE_CHECK(listening() >= 2, "supervisor: both children listening");

  SMOKE_CHECK(::kill(pid, SIGTERM) == 0, "supervisor: SIGTERM");
  int status = 0;
  pid_t done = 0;
  for (int waited_ms = 0; waited_ms < 10 * 1000; waited_ms += 50) {
    done = ::waitpid(pid, &status, WNOHANG);
    DrainLog(log_fd, &log);
    if (done == pid) break;
    ::usleep(50 * 1000);
  }
  ::close(log_fd);
  if (done != pid) ::killpg(pid, SIGKILL);
  SMOKE_CHECK(done == pid, "supervisor: drain finished within deadline");
  SMOKE_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0,
              "supervisor: clean exit after SIGTERM");
  std::fprintf(stderr, "spta_fleet_smoke: supervisor SIGTERM drain ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    const int supervisor_result = SupervisorSigtermLeg(argv[1]);
    if (supervisor_result != 0) return supervisor_result;
  }
  service::ShardedServerOptions options;
  options.shards = 2;
  service::ShardedServer fleet(options);
  SMOKE_CHECK(fleet.ListenTcp("127.0.0.1", 0) == 0, "ListenTcp");
  SMOKE_CHECK(fleet.Start() == 0, "Start");
  SMOKE_CHECK(fleet.bound_port() != 0, "ephemeral port");

  std::string error;
  const auto connection = service::Client::ConnectTcp(
      "127.0.0.1", fleet.bound_port(), &error, 10000.0);
  if (!connection) {
    std::fprintf(stderr, "spta_fleet_smoke: connect failed: %s\n",
                 error.c_str());
    return 1;
  }
  service::Client& client = *connection;

  const auto sample = MakeSample(400, 7);
  int issued = 0;
  for (int round = 0; round < 11; ++round) {
    const std::string session = "smoke-" + std::to_string(round);
    SMOKE_CHECK(client.Ping().ok, "PING");
    ++issued;
    SMOKE_CHECK(client.Open(session).ok, "OPEN");
    ++issued;
    SMOKE_CHECK(client.Append(session, sample).ok, "APPEND");
    ++issued;
    SMOKE_CHECK(client.Status(session).ok, "STATUS");
    ++issued;
    auto analyzed = client.AnalyzeSession(session);
    SMOKE_CHECK(analyzed.ok, "session ANALYZE");
    SMOKE_CHECK(analyzed.args.Has("pwcet"), "session ANALYZE pwcet");
    ++issued;
    // Repeat: second time around this is a warm (memo or cache) hit and
    // must carry the same pwcet.
    auto repeat = client.AnalyzeSession(session);
    SMOKE_CHECK(repeat.ok, "repeat ANALYZE");
    SMOKE_CHECK(repeat.args.GetString("pwcet") ==
                    analyzed.args.GetString("pwcet"),
                "repeat ANALYZE pwcet identical");
    ++issued;
    auto inline_analyzed = client.AnalyzeInline(sample);
    SMOKE_CHECK(inline_analyzed.ok, "inline ANALYZE");
    ++issued;
    auto metrics = client.Metrics();
    SMOKE_CHECK(metrics.ok, "METRICS");
    SMOKE_CHECK(metrics.args.GetUint("fleet_shards", 0) == 2,
                "METRICS fleet_shards");
    ++issued;
    SMOKE_CHECK(client.Close(session).ok, "CLOSE");
    ++issued;
  }
  SMOKE_CHECK(issued >= 99, "request volume");
  auto prom = client.MetricsProm();
  SMOKE_CHECK(prom.ok, "METRICS_PROM");
  SMOKE_CHECK(prom.payload.find("spta_fleet_shards 2") != std::string::npos,
              "prom exposition");
  ++issued;

  auto shutdown = client.Shutdown();
  SMOKE_CHECK(shutdown.ok, "SHUTDOWN ack");
  SMOKE_CHECK(shutdown.args.GetUint("drained", 0) == 1, "drained flag");
  SMOKE_CHECK(fleet.Wait() == 0, "Wait");
  std::fprintf(stderr, "spta_fleet_smoke: PASS (%d requests, 2 shards)\n",
               issued + 1);
  return 0;
}
