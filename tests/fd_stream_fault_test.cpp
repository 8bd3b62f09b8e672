// Adversarial I/O coverage for service/fd_stream's GuardedIo, driven
// through service::Client over a socketpair: the syscall retry discipline
// under injected EINTR/EAGAIN storms, short reads and writes, mid-frame
// disconnects, and real (kernel) EAGAIN as the deadline signal. The
// contract under test is the one docs/FAULTS.md documents: transient
// faults are absorbed losslessly, terminal faults fail the CONNECTION (a
// false WriteBytes, an ERR code=transport from Call, EOF on Receive) and
// never the process.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <fcntl.h>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "fault/io_plan.hpp"
#include "service/client.hpp"
#include "service/fd_stream.hpp"

namespace {

using namespace spta;
using service::Client;
using service::IoFault;
using service::IoOp;

class SocketPairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }

  /// Hands end `i` to a Client, which closes it.
  std::unique_ptr<Client> Adopt(int i, service::IoFaultHook hook = {}) {
    const int fd = fds_[i];
    fds_[i] = -1;
    return std::make_unique<Client>(fd, std::move(hook));
  }

  /// A payload long enough to span many syscalls.
  static std::string Payload() {
    std::string s;
    s.reserve(32 * 1024);
    for (int i = 0; s.size() < 32 * 1024; ++i) {
      s += "frame " + std::to_string(i) + " payload ";
    }
    return s;
  }

  /// One OK response frame carrying `payload`.
  static std::string Frame(const std::string& payload) {
    std::string frame;
    service::AppendResponseFrame(service::OkResponse({}, payload), &frame);
    return frame;
  }

  /// Every response payload `client` receives until the stream ends.
  static std::string ReadAll(Client& client) {
    std::string got;
    service::Response response;
    std::string error;
    while (client.Receive(&response, &error)) got += response.payload;
    EXPECT_EQ(error, "connection closed");
    return got;
  }

  int fds_[2] = {-1, -1};
};

TEST_F(SocketPairTest, CleanPathRoundTrips) {
  const std::string payload = Payload();
  auto reader = Adopt(1);
  ASSERT_TRUE(Adopt(0)->WriteBytes(Frame(payload)));  // Closed after.
  EXPECT_EQ(ReadAll(*reader), payload);
}

TEST_F(SocketPairTest, InjectedEintrStormIsRetriedAway) {
  const std::string payload = Payload();
  int writer_faults = 0;
  int reader_faults = 0;
  // Every other recv is hit with EINTR.
  auto reader = Adopt(1, [&](IoOp op, std::size_t) {
    IoFault f;
    if (op == IoOp::kRead && ++reader_faults % 2 == 1) f.error = EINTR;
    return f;
  });
  {
    // Every other send is hit with EINTR, under a 4 KiB cap so the frame
    // takes many sends.
    auto writer = Adopt(0, [&](IoOp op, std::size_t) {
      IoFault f;
      if (op == IoOp::kWrite) {
        f.cap = 4096;
        if (++writer_faults % 2 == 0) f.error = EINTR;
      }
      return f;
    });
    ASSERT_TRUE(writer->WriteBytes(Frame(payload)));
  }
  EXPECT_EQ(ReadAll(*reader), payload);
  EXPECT_GT(writer_faults, 0);
  EXPECT_GT(reader_faults, 0);
}

TEST_F(SocketPairTest, TransientInjectedEagainIsRetriedWithinBudget) {
  const std::string payload = Payload();
  auto reader = Adopt(1);
  {
    // Bursts of 3 consecutive EAGAINs — under the retry budget, so the
    // connection must survive them losslessly.
    int count = 0;
    auto writer = Adopt(0, [&](IoOp, std::size_t) {
      IoFault f;
      f.cap = 4096;
      if (++count % 5 < 3) f.error = EAGAIN;
      return f;
    });
    ASSERT_TRUE(writer->WriteBytes(Frame(payload)));
  }
  EXPECT_EQ(ReadAll(*reader), payload);
}

TEST_F(SocketPairTest, PersistentInjectedEagainFailsTheStreamNotTheProcess) {
  auto writer = Adopt(0, [](IoOp, std::size_t) {
    IoFault f;
    f.error = EAGAIN;  // never clears: a wedged peer
    return f;
  });
  // Bounded retries, then a failed write — no spin.
  EXPECT_FALSE(writer->WriteBytes("doomed frame"));
  const service::Response response = writer->Ping();
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.args.GetString("code"), "transport");
  EXPECT_EQ(response.payload, "write failed");
}

TEST_F(SocketPairTest, ShortReadsAndWritesAreLoopedToCompletion) {
  const std::string payload = Payload();
  // The 7-byte send cap shreds the frame into thousands of tiny skbs,
  // whose kernel truesize overhead overflows the socketpair send buffer
  // long before 32 KiB of payload is queued — so the reader must drain
  // concurrently or the writer deadlocks.
  auto reader = Adopt(1, [](IoOp op, std::size_t) {
    IoFault f;
    if (op == IoOp::kRead) f.cap = 13;
    return f;
  });
  std::string got;
  std::thread reading([&] { got = ReadAll(*reader); });
  {
    // Cap every send to 7 bytes, every recv to 13: worst-case framing.
    auto writer = Adopt(0, [](IoOp op, std::size_t) {
      IoFault f;
      if (op == IoOp::kWrite) f.cap = 7;
      return f;
    });
    EXPECT_TRUE(writer->WriteBytes(Frame(payload)));
  }
  reading.join();
  EXPECT_EQ(got, payload);
}

TEST_F(SocketPairTest, ReadDisconnectIsEofNotACrash) {
  const std::string whole = Frame("delivered");
  {
    // One whole frame, then the first half of a second.
    auto writer = Adopt(0);
    const std::string cut = Frame("never completed");
    ASSERT_TRUE(writer->WriteBytes(whole + cut.substr(0, cut.size() / 2)));
  }
  int reads = 0;
  auto reader = Adopt(1, [&](IoOp op, std::size_t) {
    IoFault f;
    // The first recv is clean; the peer "vanishes" on the second.
    if (op == IoOp::kRead && ++reads >= 2) f.disconnect = true;
    return f;
  });
  service::Response response;
  std::string error;
  ASSERT_TRUE(reader->Receive(&response, &error)) << error;
  EXPECT_EQ(response.payload, "delivered");
  // The disconnect reads as EOF: the half frame is reported truncated.
  EXPECT_FALSE(reader->Receive(&response, &error));
  EXPECT_NE(error.find("truncated frame body"), std::string::npos) << error;
  EXPECT_GE(reads, 2);
}

TEST_F(SocketPairTest, WriteDisconnectFailsTheStream) {
  auto writer = Adopt(0, [](IoOp op, std::size_t) {
    IoFault f;
    if (op == IoOp::kWrite) f.disconnect = true;
    return f;
  });
  EXPECT_FALSE(writer->WriteBytes("never arrives"));
  const service::Response response = writer->Ping();
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.args.GetString("code"), "transport");
  EXPECT_EQ(response.payload, "write failed");
}

TEST_F(SocketPairTest, RealKernelEagainIsTheDeadlineSignal) {
  // A nonblocking fd with no data models an expired SO_RCVTIMEO: the
  // client must fail the attempt immediately instead of retrying forever.
  ASSERT_EQ(::fcntl(fds_[1], F_SETFL, O_NONBLOCK), 0);
  auto reader = Adopt(1);
  service::Response response;
  std::string error;
  EXPECT_FALSE(reader->Receive(&response, &error));
  EXPECT_EQ(error, "connection closed");
}

TEST_F(SocketPairTest, SeededIoPlanReplaysItsDecisions) {
  fault::IoFaultConfig config;
  config.eintr_rate = 0.3;
  config.short_io_rate = 0.3;
  config.disconnect_rate = 0.05;

  fault::IoFaultPlan a(config, /*campaign_seed=*/7, /*stream_index=*/2);
  fault::IoFaultPlan b(config, 7, 2);
  for (int i = 0; i < 500; ++i) {
    const auto fa = a.Next(IoOp::kRead, 4096);
    const auto fb = b.Next(IoOp::kRead, 4096);
    EXPECT_EQ(fa.error, fb.error);
    EXPECT_EQ(fa.cap, fb.cap);
    EXPECT_EQ(fa.disconnect, fb.disconnect);
  }
  EXPECT_EQ(a.faults_fired(), b.faults_fired());
  EXPECT_GT(a.faults_fired(), 0u);

  // A different stream index draws a different schedule.
  fault::IoFaultPlan c(config, 7, 3);
  bool any_diff = false;
  fault::IoFaultPlan a2(config, 7, 2);
  for (int i = 0; i < 500; ++i) {
    const auto fa = a2.Next(IoOp::kRead, 4096);
    const auto fc = c.Next(IoOp::kRead, 4096);
    if (fa.error != fc.error || fa.cap != fc.cap ||
        fa.disconnect != fc.disconnect) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(SocketPairTest, PlannedFaultsStillDeliverEveryByteWhenTransient) {
  // End-to-end: a seeded plan with only transient faults (EINTR + short
  // I/O, no disconnects) must never corrupt or drop payload bytes.
  fault::IoFaultConfig config;
  config.eintr_rate = 0.2;
  config.short_io_rate = 0.4;

  const std::string payload = Payload();
  fault::IoFaultPlan writer_plan(config, 11, 0);
  fault::IoFaultPlan reader_plan(config, 11, 1);
  auto reader = Adopt(1, reader_plan.Hook());
  std::string got;
  std::thread reading([&] { got = ReadAll(*reader); });
  EXPECT_TRUE(Adopt(0, writer_plan.Hook())->WriteBytes(Frame(payload)));
  reading.join();
  EXPECT_EQ(got, payload);
  EXPECT_GT(writer_plan.faults_fired() + reader_plan.faults_fired(), 0u);
}

// A real deadline: SO_RCVTIMEO on a client whose peer accepted the
// connection and never answers. The bound is generous; the point is that
// Call returns at all.
TEST(ClientDeadlineTest, SilentPeerAnswersTransportErrInsteadOfHanging) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   addr_len),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);

  std::string error;
  auto client = Client::ConnectTcp("127.0.0.1", ntohs(addr.sin_port), &error,
                                   /*io_timeout_ms=*/200.0);
  ASSERT_NE(client, nullptr) << error;
  const int peer = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(peer, 0);

  const auto start = std::chrono::steady_clock::now();
  const service::Response response = client->Ping();
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.args.GetString("code"), "transport");
  EXPECT_EQ(response.payload, "connection closed");
  EXPECT_LT(waited, std::chrono::seconds(60));
  ::close(peer);
  ::close(listener);
}

}  // namespace
