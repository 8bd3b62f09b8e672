// End-to-end tests of the spta_serve binary: the golden request script
// piped through --pipe, a --socket daemon driven by spta_client, and the
// flag surface (unknown flags are a usage error). Each test works in its
// own temporary directory.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "service_harness.hpp"

namespace spta {
namespace {

class TempDir {
 public:
  TempDir() {
    char templ[] = "/tmp/spta_serve_binary_XXXXXX";
    if (::mkdtemp(templ) != nullptr) dir_ = templ;
  }
  ~TempDir() {
    if (dir_.empty()) return;
    const std::string cmd = "rm -rf '" + dir_ + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

/// Runs a shell command line; returns the exit status (-1 on a signal).
int Shell(const std::string& cmd) {
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/// Waits up to `seconds` for the daemon `pid` to exit; on timeout it is
/// SIGKILLed and reaped, and the result is false, so a daemon that never
/// drains fails the test with its log instead of hanging it.
bool WaitExit(pid_t pid, int seconds, int* status) {
  for (int waited_ms = 0; waited_ms < seconds * 1000; waited_ms += 10) {
    if (::waitpid(pid, status, WNOHANG) == pid) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, status, 0);
  return false;
}

const std::string kServe = SPTA_SERVE_PATH;
const std::string kClient = SPTA_CLIENT_PATH;

TEST(ServeBinaryTest, PipeServesTheGoldenBytes) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string out = dir.path() + "/responses";
  ASSERT_EQ(Shell("'" + kServe + "' --pipe < '" SPTA_TEST_DATA_DIR
                  "/service_golden.requests' > '" + out + "' 2> '" +
                  dir.path() + "/stderr'"),
            0);
  testing::ExpectGoldenResponses(testing::ReadFileBytes(out),
                                 "spta_serve --pipe");
}

TEST(ServeBinaryTest, SocketDaemonServesTheClient) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string sock = dir.path() + "/serve.sock";
  {
    std::ofstream csv(dir.path() + "/samples.csv");
    for (const auto& o : testing::SyntheticSample(240, 5)) {
      csv << o.time << '\n';
    }
  }
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const std::string log = dir.path() + "/serve.err";
    if (std::freopen(log.c_str(), "w", stderr) == nullptr) ::_exit(127);
    ::execl(kServe.c_str(), kServe.c_str(), "--socket", sock.c_str(),
            "--shards", "2", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  const std::string client = "'" + kClient + "' ";
  const std::string target = " --socket '" + sock + "' > '" + dir.path() +
                             "/client.out' 2>&1";
  int ping = -1;
  for (int attempt = 0; attempt < 200 && ping != 0; ++attempt) {
    ping = Shell(client + "ping --retries 1" + target);
    if (ping != 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(ping, 0);
  EXPECT_EQ(Shell(client + "analyze --input '" + dir.path() +
                  "/samples.csv'" + target),
            0);
  EXPECT_NE(testing::ReadFileBytes(dir.path() + "/client.out").find("pwcet"),
            std::string::npos);
  EXPECT_EQ(Shell(client + "shutdown" + target), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
  // The daemon removed its socket file on the way out.
  EXPECT_NE(::access(sock.c_str(), F_OK), 0);
}

TEST(ServeBinaryTest, UnknownFlagsAreAUsageError) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string quiet = " < /dev/null > /dev/null 2> '" + dir.path() +
                            "/stderr'";
  // --workers is gone: --shards is the fleet's parallelism.
  EXPECT_EQ(Shell("'" + kServe + "' --pipe --workers 4" + quiet), 2);
  EXPECT_NE(testing::ReadFileBytes(dir.path() + "/stderr").find("usage:"),
            std::string::npos);
  EXPECT_EQ(Shell("'" + kServe + "' --pipe --shardz 2" + quiet), 2);
  // Every flag spta_fleet hands its children and perfbench passes is
  // still accepted (--health-fd -1 and --flight-fd -1 mean "none").
  EXPECT_EQ(Shell("'" + kServe + "' --pipe --shards 2 --cache 4096 "
                  "--queue 8 --backlog 16 --reuseport --cache-max-bytes 0 "
                  "--cache-quota-bytes 0 --flight-fd -1 --deadline-ms 0 "
                  "--host 127.0.0.1 --prom-interval-ms 0 --trace-dir '" +
                  dir.path() + "' --prom-out '" + dir.path() + "/prom.txt'" +
                  quiet),
            0);
  EXPECT_EQ(Shell("'" + kServe + "' --tcp 0 --pipe" + quiet), 2);
}

// perfbench's serve_mixed starts `--tcp 0 --shards 2 --cache 4096`, parses
// the "listening on HOST:PORT" line and stops the daemon with SIGTERM.
TEST(ServeBinaryTest, TcpDaemonDrainsOnSigterm) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string log = dir.path() + "/serve.err";
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    if (std::freopen(log.c_str(), "w", stderr) == nullptr) ::_exit(127);
    ::execl(kServe.c_str(), kServe.c_str(), "--tcp", "0", "--shards", "2",
            "--cache", "4096", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  bool listening = false;
  for (int attempt = 0; attempt < 500 && !listening; ++attempt) {
    const std::string err = testing::ReadFileBytes(log);
    listening = err.find("spta_serve: listening on 127.0.0.1:") !=
                    std::string::npos &&
                err.find(" (2 shards)\n") != std::string::npos;
    if (!listening) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(listening) << testing::ReadFileBytes(log);
  ::kill(pid, SIGTERM);
  int status = 0;
  ASSERT_TRUE(WaitExit(pid, 60, &status))
      << "no drain after SIGTERM:\n" << testing::ReadFileBytes(log);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << status << "\n" << testing::ReadFileBytes(log);
}

}  // namespace
}  // namespace spta
