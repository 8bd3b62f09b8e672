// The sharded-fleet battery: served-bytes goldens and chaos tests pinning
// the epoll event loop, routing, the warm memo, the persistent warm-start
// cache and the zero-loss drain.
//
//   * Served bytes: the golden script (service_harness.hpp) answered
//     through ServeScript, TCP, AF_UNIX and the adopted --pipe connection
//     equals the recorded golden frames byte for byte, after stripping
//     only the volatile analyze_us timing field (the loop-answered verbs
//     compare their stable argument names).
//   * Routing: an idle fleet routes a digest to its home shard, a busy one
//     sends stateless work to an idle shard, identical requests in flight
//     stay together, any shard serves the same bytes (one engine), and a
//     session stays on its shard whatever its requests' deadlines do. The
//     fleet memo is LRU and answers stateless repeats while every shard is
//     busy.
//   * Drain: a campaign pipelined over TCP into a SHUTDOWN; every accepted
//     request is still answered (zero loss), then the drain acks.
//   * Warm-start goldens: a restarted fleet serves bit-identical bytes
//     from the persistent cache; corrupted/truncated entry files are
//     rejected and recomputed, never served.
//   * Burst accept: the historical hard-coded listen backlog of 16 drops
//     connections under a connection storm; the (now flagged) default of
//     128 does not.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "mbpta/mbpta.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "service/client.hpp"
#include "service/engine.hpp"
#include "service/frame_reader.hpp"
#include "service/persistent_cache.hpp"
#include "service/protocol.hpp"
#include "service/sharded_server.hpp"
#include "service_harness.hpp"

namespace spta {
namespace {

using testing::AnalyzeInlineRequest;
using testing::EncodeScript;
using testing::MakeRequest;
using testing::NormalizedFrame;
using testing::PipeFleet;
using testing::RunScript;
using testing::SyntheticSample;

/// Pipelines the whole script over one real TCP connection against a
/// started fleet and reaps the ordered responses.
std::vector<service::Response> RunFleetTcp(
    service::ShardedServer& fleet,
    const std::vector<service::Request>& script) {
  std::string error;
  auto connection = service::Client::ConnectTcp(
      "127.0.0.1", fleet.bound_port(), &error, 20000.0);
  EXPECT_NE(connection, nullptr) << error;
  if (!connection) return {};
  EXPECT_TRUE(connection->WriteBytes(EncodeScript(script)));
  std::vector<service::Response> responses;
  service::Response response;
  while (responses.size() < script.size() &&
         connection->Receive(&response, &error)) {
    responses.push_back(response);
  }
  return responses;
}

/// Writes `wire` into a fresh connection and reads until the fleet closes
/// it (the golden script ends in a malformed frame, after which the fleet
/// answers once and hangs up). Returns the responses re-encoded as frames;
/// anything after the last whole frame fails the test.
std::string ReplayUntilClosed(std::unique_ptr<service::Client> client,
                              const std::string& wire) {
  if (!client) return {};
  EXPECT_TRUE(client->WriteBytes(wire));
  std::string frames;
  service::Response response;
  std::string error;
  while (client->Receive(&response, &error)) {
    service::AppendResponseFrame(response, &frames);
  }
  EXPECT_EQ(error, "connection closed");
  return frames;
}

/// Responses answered from the fleet memo, over every shard.
std::uint64_t MemoHits(const service::ShardedServer& fleet) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < fleet.shard_count(); ++i) {
    total += fleet.shard_memo_hits(i);
  }
  return total;
}

// --- Served bytes ----------------------------------------------------------

TEST(FleetEquivalenceTest, EveryTransportServesTheGoldenBytes) {
  const std::string wire = testing::GoldenRequests();
  ASSERT_FALSE(wire.empty());

  // The served bytes do not depend on the shard count.
  for (std::size_t shards = 1; shards <= 5; ++shards) {
    service::ShardedServerOptions options;
    options.shards = shards;
    service::ShardedServer fleet(options);
    std::string out;
    EXPECT_FALSE(fleet.ServeScript(wire, &out));
    testing::ExpectGoldenResponses(
        out, "script, shards=" + std::to_string(shards));
  }

  service::ShardedServerOptions options;
  options.shards = 2;
  std::string error;
  {
    service::ShardedServer fleet(options);
    ASSERT_EQ(fleet.ListenTcp("127.0.0.1", 0), 0);
    ASSERT_EQ(fleet.Start(), 0);
    testing::ExpectGoldenResponses(
        ReplayUntilClosed(service::Client::ConnectTcp(
                              "127.0.0.1", fleet.bound_port(), &error,
                              20000.0),
                          wire),
        "tcp " + error);
    fleet.TriggerShutdown();
    EXPECT_EQ(fleet.Wait(), 0);
  }
  {
    const std::string path =
        "/tmp/spta_fleet_golden_" + std::to_string(::getpid()) + ".sock";
    service::ShardedServer fleet(options);
    ASSERT_EQ(fleet.ListenUnix(path), 0);
    ASSERT_EQ(fleet.Start(), 0);
    testing::ExpectGoldenResponses(
        ReplayUntilClosed(service::Client::ConnectUnix(path, &error, 20000.0),
                          wire),
        "unix " + error);
    fleet.TriggerShutdown();
    EXPECT_EQ(fleet.Wait(), 0);
  }
  {
    PipeFleet pipe(options);
    pipe.Send(wire);
    testing::ExpectGoldenResponses(pipe.FinishRaw(), "pipe");
  }
}

// A client still sending after a malformed frame (the rest of a pipelined
// batch) must read the ERR and then a clean EOF, and its sends must not
// fail. Closing a TCP socket with unread bytes answers with a RST, which
// surfaces here as ECONNRESET/EPIPE and can drop the ERR on a real network.
TEST(FleetEquivalenceTest, TcpPeerStillSendingAfterMalformedFrameReadsTheErr) {
  service::ShardedServer fleet(service::ShardedServerOptions{});
  ASSERT_EQ(fleet.ListenTcp("127.0.0.1", 0), 0);
  ASSERT_EQ(fleet.Start(), 0);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fleet.bound_port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string garbage(1 << 16, 'x');
  const std::string batch = "not a frame\n" + garbage;
  for (std::size_t off = 0; off < batch.size();) {
    const ssize_t n =
        ::send(fd, batch.data() + off, batch.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << std::strerror(errno);
    off += static_cast<std::size_t>(n);
  }
  // More bytes after the ERR has gone out.
  int error = 0;
  for (int i = 0; i < 3 && error == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    const ssize_t n = ::send(fd, garbage.data(), garbage.size(),
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) error = errno;
  }
  std::string bytes;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      bytes.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && error == 0) error = errno;
    break;
  }
  ::close(fd);
  EXPECT_EQ(error, 0) << std::strerror(error);
  const auto responses = testing::DecodeResponses(bytes);
  ASSERT_EQ(responses.size(), 1u) << bytes;
  EXPECT_FALSE(responses[0].ok);
  EXPECT_EQ(responses[0].args.GetString("code"), "malformed");
  fleet.TriggerShutdown();
  EXPECT_EQ(fleet.Wait(), 0);
}

// The warm repeat must ALSO be identical in its cache disposition: both
// sides serve the second session ANALYZE as a hit, and the served pwcet
// equals the batch pipeline's bit for bit. An APPEND then changes the
// session, so the next ANALYZE computes afresh over the grown sample.
TEST(FleetEquivalenceTest, WarmHitMatchesBatchQuantileBitForBit) {
  const auto sample = SyntheticSample(500, 31);
  std::vector<double> times;
  for (const auto& o : sample) times.push_back(o.time);
  const auto batch = mbpta::AnalyzeSample(times, mbpta::MbptaOptions{});
  ASSERT_TRUE(batch.curve.has_value());
  const double batch_pwcet = batch.curve->QuantileForExceedance(1e-12);

  service::ShardedServerOptions options;
  options.shards = 2;
  service::ShardedServer fleet(options);
  std::vector<service::Request> script;
  service::Request open = MakeRequest(service::RequestKind::kOpen);
  open.args.Set("session", "batch");
  script.push_back(open);
  service::Request append = MakeRequest(service::RequestKind::kAppend);
  append.args.Set("session", "batch");
  append.payload = service::EncodeSamplePayload(sample);
  script.push_back(append);
  service::Request analyze = MakeRequest(service::RequestKind::kAnalyze);
  analyze.args.Set("session", "batch");
  script.push_back(analyze);
  script.push_back(analyze);
  service::Request grow = append;
  grow.payload = service::EncodeSamplePayload(SyntheticSample(100, 32));
  script.push_back(grow);
  script.push_back(analyze);
  const auto responses = RunScript(fleet, script);
  ASSERT_EQ(responses.size(), 6u);
  for (const auto& response : responses) {
    ASSERT_TRUE(response.ok) << response.payload;
  }
  EXPECT_EQ(responses[2].args.GetString("cache"), "miss");
  EXPECT_EQ(responses[3].args.GetString("cache"), "hit");
  for (const std::size_t i : {std::size_t{2}, std::size_t{3}}) {
    const double served =
        std::strtod(responses[i].args.GetString("pwcet").c_str(), nullptr);
    EXPECT_EQ(served, batch_pwcet) << "response " << i;  // bit-for-bit
  }
  // The hit came from the engine's cache: session responses are never
  // memoized.
  EXPECT_EQ(fleet.engine().cache().stats().hits, 1u);
  EXPECT_EQ(MemoHits(fleet), 0u);
  // After the APPEND the same request bytes describe a larger sample.
  EXPECT_EQ(responses[5].args.GetString("cache"), "miss");
  EXPECT_EQ(responses[5].args.GetUint("sample_size", 0), 600u);
  EXPECT_NE(responses[5].args.GetString("key"),
            responses[3].args.GetString("key"));
}

// One sample in two byte-different inline bodies (with and without count=)
// routes as two digests, so load routing runs them on different shards at
// once. Both answer the same analysis, and the engine keeps one entry;
// which of the two computes, or whether both do, is a race.
TEST(FleetEquivalenceTest, SameKeyFromDifferentBodiesAnswersTheSameBytes) {
  service::ShardedServerOptions options;
  options.shards = 2;
  options.server.enable_debug_hooks = true;
  testing::PipeFleet pipe(options);
  service::ShardedServer& fleet = pipe.fleet();
  const auto sample = SyntheticSample(300, 740);
  service::Args counted;
  counted.SetDouble("debug_sleep_ms", 50.0);
  counted.SetUint("count", sample.size());
  service::Args uncounted;
  uncounted.SetDouble("debug_sleep_ms", 50.0);
  pipe.Send({AnalyzeInlineRequest(sample, counted),
             AnalyzeInlineRequest(sample, uncounted)});
  auto responses = pipe.Finish();
  ASSERT_EQ(responses.size(), 2u);
  for (const auto& response : responses) {
    ASSERT_TRUE(response.ok) << response.payload;
  }
  EXPECT_EQ(fleet.shard_routed_total(0), 1u);
  EXPECT_EQ(fleet.shard_routed_total(1), 1u);
  EXPECT_EQ(responses[0].args.GetString("key"),
            responses[1].args.GetString("key"));
  EXPECT_EQ(responses[0].args.GetString("pwcet"),
            responses[1].args.GetString("pwcet"));
  EXPECT_EQ(responses[0].payload, responses[1].payload);
  EXPECT_EQ(fleet.engine().cache().stats().size, 1u);
}

// The fleet METRICS surface: the per-shard counters summed across shards
// plus the fleet_* keys, payload sectioned per shard.
TEST(FleetEquivalenceTest, FleetMetricsAggregateAcrossShards) {
  service::ShardedServerOptions options;
  options.shards = 2;
  service::ShardedServer fleet(options);
  std::vector<service::Request> script;
  for (int i = 0; i < 6; ++i) {
    script.push_back(AnalyzeInlineRequest(SyntheticSample(300, 100 + i)));
  }
  script.push_back(MakeRequest(service::RequestKind::kMetrics));
  script.push_back(MakeRequest(service::RequestKind::kMetricsProm));
  const auto responses = RunScript(fleet, script);
  ASSERT_EQ(responses.size(), script.size());
  const auto& metrics = responses[6];
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.args.GetUint("fleet_shards", 0), 2u);
  EXPECT_FALSE(metrics.args.Has("fleet_alive"));
  EXPECT_FALSE(metrics.args.Has("fleet_failovers"));
  EXPECT_FALSE(metrics.args.Has("fleet_breaker_open"));
  EXPECT_EQ(metrics.args.GetUint("requests_total", 0), 6u);
  EXPECT_EQ(metrics.args.GetUint("analyses_total", 0), 6u);
  EXPECT_NE(metrics.payload.find("== shard 0 =="), std::string::npos);
  EXPECT_NE(metrics.payload.find("== shard 1 =="), std::string::npos);
  const auto& prom = responses[7];
  ASSERT_TRUE(prom.ok);
  EXPECT_EQ(prom.args.GetString("format"), "prometheus-0.0.4");
  EXPECT_NE(prom.payload.find("spta_fleet_shards 2"), std::string::npos);
  EXPECT_NE(prom.payload.find("spta_fleet_routed_total{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(prom.payload.find("spta_fleet_memo_hits_total{shard=\"1\"}"),
            std::string::npos);
  EXPECT_EQ(prom.payload.find("spta_fleet_shard_alive"), std::string::npos);
  EXPECT_EQ(prom.payload.find("spta_fleet_breaker"), std::string::npos);
  EXPECT_EQ(prom.payload.find("spta_fleet_failovers"), std::string::npos);
}

// --- Routing determinism --------------------------------------------------

/// The body bytes a request frame routes by.
std::string FrameBody(const service::Request& request) {
  std::string frame;
  service::AppendRequestFrame(request, &frame);
  return frame.substr(frame.find('\n') + 1);
}

/// The home shard (ShardFor) of a request's route digest.
std::size_t HomeShard(const service::ShardedServer& fleet,
                      const service::Request& request) {
  return fleet.ShardFor(service::ShardedServer::RouteDigest(
      request, HashBytes(FrameBody(request)).lo));
}

std::uint64_t RoutedTotal(const service::ShardedServer& fleet) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < fleet.shard_count(); ++i) {
    total += fleet.shard_routed_total(i);
  }
  return total;
}

// An idle fleet routes a digest to its home shard, every time. The shards
// share one engine, so wherever the request executes — here on each
// shard's executor in turn — it answers the same bytes, and only the first
// execution is a cache miss.
TEST(FleetRoutingTest, SameDigestSameShardSameBytes) {
  service::ShardedServerOptions options;
  options.shards = 4;
  service::ShardedServer fleet(options);

  const auto request = AnalyzeInlineRequest(SyntheticSample(300, 5));
  const std::uint64_t route = service::ShardedServer::RouteDigest(
      request, HashBytes(FrameBody(request)).lo);
  const std::size_t expected_shard = fleet.ShardFor(route);
  ASSERT_LT(expected_shard, fleet.shard_count());
  // ShardFor is pure: the same digest maps to the same shard every time.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(fleet.ShardFor(route), expected_shard);
  }

  // Serve the identical request repeatedly: every one lands on that one
  // shard (executed once, then answered from the memo on its behalf) and
  // every response is byte-identical (the first run is the cache miss,
  // later ones the cached hit — content must not differ beyond that
  // disposition flag).
  std::vector<std::string> frames;
  for (int i = 0; i < 4; ++i) {
    auto responses = RunScript(fleet, {request});
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].args.GetString("cache"), i == 0 ? "miss" : "hit");
    responses[0].args.Erase("cache");
    frames.push_back(NormalizedFrame(responses[0]));
  }
  for (const auto& frame : frames) EXPECT_EQ(frame, frames[0]);
  EXPECT_EQ(fleet.shard_routed_total(expected_shard), 4u);
  for (std::size_t i = 0; i < fleet.shard_count(); ++i) {
    if (i != expected_shard) {
      EXPECT_EQ(fleet.shard_routed_total(i), 0u);
    }
  }

  // Same bytes at any shard: a fresh fleet executes the request on every
  // shard's executor in turn. The one engine answers the first execution
  // as the miss and every later one as a hit.
  service::ShardedServer fresh(options);
  for (std::size_t shard = 0; shard < fresh.shard_count(); ++shard) {
    service::Response response = fresh.shard(shard).Execute(request);
    ASSERT_TRUE(response.ok) << response.payload;
    EXPECT_EQ(response.args.GetString("cache"), shard == 0 ? "miss" : "hit")
        << "shard " << shard;
    response.args.Erase("cache");
    EXPECT_EQ(NormalizedFrame(response), frames[0]) << "shard " << shard;
  }
  const auto stats = fresh.engine().cache().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, fresh.shard_count() - 1);
}

// A stateless ANALYZE whose home shard is busy goes to an idle shard.
TEST(FleetRoutingTest, ColdAnalyzeAvoidsASleepingShard) {
  service::ShardedServerOptions options;
  options.shards = 2;
  options.server.enable_debug_hooks = true;
  testing::PipeFleet pipe(options);
  service::ShardedServer& fleet = pipe.fleet();

  service::Args slow;
  slow.SetDouble("debug_sleep_ms", 300.0);
  const auto sleeper = AnalyzeInlineRequest(SyntheticSample(260, 700), slow);
  const std::size_t busy = HomeShard(fleet, sleeper);
  // A distinct cold request with the same home shard: only load routing
  // can move it.
  service::Request cold;
  for (std::uint64_t seed = 701;; ++seed) {
    cold = AnalyzeInlineRequest(SyntheticSample(260, seed));
    if (HomeShard(fleet, cold) == busy) break;
  }
  // One write: the loop routes the cold request while the sleeper is
  // queued or executing on its shard.
  pipe.Send({sleeper, cold});
  const auto responses = pipe.Finish();
  ASSERT_EQ(responses.size(), 2u);
  for (const auto& r : responses) {
    ASSERT_TRUE(r.ok) << r.payload;
    EXPECT_EQ(r.args.GetString("cache"), "miss");
  }
  EXPECT_EQ(fleet.shard_routed_total(busy), 1u);
  EXPECT_EQ(fleet.shard_routed_total(1 - busy), 1u);
}

/// Polls HEALTH until `ready` holds for a response. Fails once the poll
/// cap runs out, naming `what` and printing the last HEALTH frame.
template <typename Ready>
::testing::AssertionResult PollHealthUntil(service::Client& client,
                                           const char* what, Ready ready) {
  std::string last;
  for (int poll = 0; poll < 100000; ++poll) {
    const auto health = client.Health();
    last.clear();
    service::AppendResponseFrame(health, &last);
    if (!health.ok) break;
    if (ready(health)) return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << what << "; last HEALTH:\n" << last;
}

// A memoized stateless ANALYZE is answered from the fleet memo while every
// shard is executing something else.
TEST(FleetRoutingTest, MemoAnswersStatelessRepeatWhileEveryShardIsBusy) {
  service::ShardedServerOptions options;
  options.shards = 2;
  options.server.enable_debug_hooks = true;
  service::ShardedServer fleet(options);
  ASSERT_EQ(fleet.ListenTcp("127.0.0.1", 0), 0);
  ASSERT_EQ(fleet.Start(), 0);
  std::string error;
  auto first = service::Client::ConnectTcp("127.0.0.1", fleet.bound_port(),
                                           &error, 30000.0);
  ASSERT_NE(first, nullptr) << error;
  auto second = service::Client::ConnectTcp("127.0.0.1", fleet.bound_port(),
                                            &error, 30000.0);
  ASSERT_NE(second, nullptr) << error;
  service::Client& warm = *second;

  const auto sample = SyntheticSample(300, 710);
  const auto computed = warm.AnalyzeInline(sample);
  ASSERT_TRUE(computed.ok) << computed.payload;
  EXPECT_EQ(computed.args.GetString("cache"), "miss");
  // A shard worker hands out its reply before it leaves the shard's load
  // count, so the fleet may still look busy just after the reply: wait
  // until it is idle, or load routing could queue both sleepers on one
  // shard.
  ASSERT_TRUE(PollHealthUntil(warm, "the fleet never went idle",
                              [](const service::Response& health) {
                                return health.args.GetUint("fleet_inflight",
                                                           1) == 0;
                              }));

  // Two distinct sleepers in one write: the first takes its home shard,
  // the second the other, idle one.
  service::Args slow;
  slow.SetDouble("debug_sleep_ms", 1000.0);
  const std::vector<service::Request> sleepers = {
      AnalyzeInlineRequest(SyntheticSample(260, 711), slow),
      AnalyzeInlineRequest(SyntheticSample(260, 712), slow)};
  const std::string bytes = EncodeScript(sleepers);
  ASSERT_TRUE(first->WriteBytes(bytes));
  // HEALTH answers on the loop: once it shows both shards occupied, the
  // repeat goes out.
  ASSERT_TRUE(PollHealthUntil(warm, "the sleepers never occupied both shards",
                              [](const service::Response& health) {
                                return health.payload.find("inflight=0") ==
                                       std::string::npos;
                              }));
  const auto repeat = warm.AnalyzeInline(sample);
  ASSERT_TRUE(repeat.ok) << repeat.payload;
  EXPECT_EQ(repeat.args.GetString("cache"), "hit");
  EXPECT_EQ(MemoHits(fleet), 1u);
  // The sleepers had not finished: only the first execution and the memo
  // answer are counted as routed.
  EXPECT_EQ(RoutedTotal(fleet), 2u);

  service::Response response;
  for (std::size_t i = 0; i < sleepers.size(); ++i) {
    ASSERT_TRUE(first->Receive(&response, &error));
    EXPECT_TRUE(response.ok) << response.payload;
  }
  EXPECT_TRUE(warm.Shutdown().ok);
  EXPECT_EQ(fleet.Wait(), 0);
}

// Identical requests pipelined on one connection stay together on one
// shard, whatever the fleet size: exactly one computes (cache=miss) and
// the rest answer its result (cache=hit), in order, with the same bytes.
TEST(FleetRoutingTest, PipelinedTwinsAnswerOneMissThenHitsAtAnyShardCount) {
  constexpr std::size_t kTwins = 6;
  for (std::size_t shards = 1; shards <= 5; ++shards) {
    service::ShardedServerOptions options;
    options.shards = shards;
    options.server.enable_debug_hooks = true;
    service::ShardedServer fleet(options);
    ASSERT_EQ(fleet.ListenTcp("127.0.0.1", 0), 0);
    ASSERT_EQ(fleet.Start(), 0);
    // The sleep before each analysis would let twins on different shards
    // race for the engine; FIFO on one shard keeps them ordered.
    service::Args nap;
    nap.SetDouble("debug_sleep_ms", 10.0);
    std::vector<service::Request> script(
        kTwins, AnalyzeInlineRequest(SyntheticSample(300, 720 + shards), nap));
    script.push_back(MakeRequest(service::RequestKind::kShutdown));
    auto responses = RunFleetTcp(fleet, script);
    EXPECT_EQ(fleet.Wait(), 0);
    ASSERT_EQ(responses.size(), script.size()) << shards << " shards";
    std::string hit_frame;
    for (std::size_t i = 0; i < kTwins; ++i) {
      ASSERT_TRUE(responses[i].ok) << responses[i].payload;
      EXPECT_EQ(responses[i].args.GetString("cache"), i == 0 ? "miss" : "hit")
          << shards << " shards, response " << i;
      if (i == 0) continue;
      const std::string frame = NormalizedFrame(responses[i]);
      if (hit_frame.empty()) hit_frame = frame;
      EXPECT_EQ(frame, hit_frame) << shards << " shards, response " << i;
    }
    responses[0].args.Set("cache", "hit");
    EXPECT_EQ(NormalizedFrame(responses[0]), hit_frame) << shards << " shards";
  }
}

// The fleet memo evicts the least recently USED entry: an entry hit
// between every insert outlives any number of newer inserts.
TEST(FleetMemoTest, HitEntrySurvivesMoreInsertsThanCapacity) {
  service::ShardedServerOptions options;
  options.warm_memo_capacity = 4;
  service::ShardedServer fleet(options);
  const auto hot = AnalyzeInlineRequest(SyntheticSample(300, 730));
  std::vector<service::Request> script = {hot};
  for (std::uint64_t i = 0; i < 8; ++i) {
    script.push_back(AnalyzeInlineRequest(SyntheticSample(300, 731 + i)));
    script.push_back(hot);
  }
  script.push_back(MakeRequest(service::RequestKind::kMetrics));
  const auto responses = RunScript(fleet, script);
  ASSERT_EQ(responses.size(), script.size());
  for (std::size_t i = 0; i + 1 < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok) << i << ": " << responses[i].payload;
    const bool repeat = i > 0 && i % 2 == 0;
    EXPECT_EQ(responses[i].args.GetString("cache"), repeat ? "hit" : "miss")
        << "response " << i;
  }
  EXPECT_EQ(fleet.shard_memo_hits(0), 8u);
  EXPECT_EQ(responses.back().args.GetUint("fleet_memo_hits", 0), 8u);
  // None of the repeats reached the engine.
  EXPECT_EQ(responses.back().args.GetUint("cache_hits", 99), 0u);
}

TEST(FleetRoutingTest, SessionsStickToOneShardAndSpreadAcrossFleet) {
  service::ShardedServerOptions options;
  options.shards = 3;
  service::ShardedServer fleet(options);
  const auto sample = SyntheticSample(300, 9);
  // 12 sessions: each one's whole life must execute on one shard, and
  // with this many distinct names every shard must see traffic.
  for (int s = 0; s < 12; ++s) {
    const std::string name = "route-" + std::to_string(s);
    std::vector<service::Request> script;
    service::Request open = MakeRequest(service::RequestKind::kOpen);
    open.args.Set("session", name);
    script.push_back(open);
    service::Request append = MakeRequest(service::RequestKind::kAppend);
    append.args.Set("session", name);
    append.payload = service::EncodeSamplePayload(sample);
    script.push_back(append);
    service::Request close = MakeRequest(service::RequestKind::kClose);
    close.args.Set("session", name);
    script.push_back(close);
    const std::size_t shard = fleet.ShardFor(HashBytes(name).lo);
    const std::uint64_t before = fleet.shard_routed_total(shard);
    const auto responses = RunScript(fleet, script);
    ASSERT_EQ(responses.size(), 3u);
    for (const auto& r : responses) EXPECT_TRUE(r.ok) << r.payload;
    EXPECT_EQ(fleet.shard_routed_total(shard), before + 3)
        << "session " << name << " leaked off shard " << shard;
  }
  for (std::size_t i = 0; i < fleet.shard_count(); ++i) {
    EXPECT_GT(fleet.shard_routed_total(i), 0u) << "shard " << i << " idle";
  }
}

// Deadline misses say nothing about where a session lives: after eight
// session ANALYZEs expire behind a slow one, the session's next requests
// still reach the shard that holds it.
TEST(FleetRoutingTest, SessionStaysOnItsShardAfterDeadlineMisses) {
  service::ShardedServerOptions options;
  options.shards = 2;
  options.server.enable_debug_hooks = true;
  service::ShardedServer fleet(options);
  ASSERT_EQ(fleet.ListenTcp("127.0.0.1", 0), 0);
  ASSERT_EQ(fleet.Start(), 0);
  std::string error;
  auto connection = service::Client::ConnectTcp(
      "127.0.0.1", fleet.bound_port(), &error, 30000.0);
  ASSERT_NE(connection, nullptr) << error;
  service::Client& client = *connection;
  const std::string name = "probe";
  const std::size_t owner = fleet.ShardFor(HashBytes(name).lo);

  const auto session_request = [&](service::RequestKind kind) {
    service::Request request = MakeRequest(kind);
    request.args.Set("session", name);
    return request;
  };
  std::vector<service::Request> script = {
      session_request(service::RequestKind::kOpen),
      session_request(service::RequestKind::kAppend)};
  script[1].payload = service::EncodeSamplePayload(SyntheticSample(300, 750));
  service::Request slow = session_request(service::RequestKind::kAnalyze);
  slow.args.SetDouble("debug_sleep_ms", 200.0);
  script.push_back(slow);
  service::Request doomed = session_request(service::RequestKind::kAnalyze);
  doomed.args.SetDouble("deadline_ms", 1.0);
  script.insert(script.end(), 8, doomed);
  const std::string bytes = EncodeScript(script);
  ASSERT_TRUE(connection->WriteBytes(bytes));
  service::Response response;
  for (std::size_t i = 0; i < script.size(); ++i) {
    ASSERT_TRUE(connection->Receive(&response, &error)) << error;
    if (i < 3) {
      EXPECT_TRUE(response.ok) << i << ": " << response.payload;
      continue;
    }
    EXPECT_FALSE(response.ok) << i;
    const std::string code = response.args.GetString("code");
    EXPECT_TRUE(code == "deadline" || code == "busy") << i << ": " << code;
  }

  const auto append = client.Append(name, SyntheticSample(50, 751));
  EXPECT_TRUE(append.ok) << append.payload;
  const auto status = client.Status(name);
  ASSERT_TRUE(status.ok) << status.payload;
  EXPECT_EQ(status.args.GetUint("total", 0), 350u);
  const auto analyze = client.AnalyzeSession(name);
  EXPECT_TRUE(analyze.ok) << analyze.payload;
  EXPECT_EQ(fleet.shard_routed_total(1 - owner), 0u);
  EXPECT_TRUE(client.Shutdown().ok);
  EXPECT_EQ(fleet.Wait(), 0);
}

// --- Zero-loss drain over TCP ---------------------------------------------

// Pipelines a campaign of slow analyses over TCP and a SHUTDOWN behind it:
// every frame written gets exactly one response, in order, and the drain
// acks after the last analysis.
TEST(FleetDrainTest, PipelinedTcpBurstLosesNothing) {
  service::ShardedServerOptions options;
  options.shards = 3;
  options.server.enable_debug_hooks = true;  // debug_sleep_ms
  service::ShardedServer fleet(options);
  ASSERT_EQ(fleet.ListenTcp("127.0.0.1", 0), 0);
  ASSERT_EQ(fleet.Start(), 0);

  // 30 distinct slow analyses (debug_sleep_ms keeps the shards busy while
  // the SHUTDOWN arrives), pipelined without reading.
  std::vector<service::Request> script;
  for (int i = 0; i < 30; ++i) {
    service::Args slow;
    slow.SetDouble("debug_sleep_ms", 5.0);
    script.push_back(
        AnalyzeInlineRequest(SyntheticSample(260, 1000 + i), slow));
  }
  script.push_back(MakeRequest(service::RequestKind::kShutdown));
  const auto responses = RunFleetTcp(fleet, script);
  EXPECT_EQ(fleet.Wait(), 0);

  ASSERT_EQ(responses.size(), script.size());
  for (std::size_t i = 0; i + 1 < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok) << i << ": " << responses[i].payload;
    EXPECT_EQ(responses[i].args.GetString("cache"), "miss") << i;
    EXPECT_TRUE(responses[i].args.Has("pwcet")) << i;
  }
  const auto& ack = responses.back();
  EXPECT_TRUE(ack.ok);
  EXPECT_EQ(ack.args.GetUint("drained", 0), 1u);
}

// --- Persistent warm-start cache ------------------------------------------

class TempDir {
 public:
  TempDir() {
    char templ[] = "/tmp/spta_fleet_cache_XXXXXX";
    dir_ = ::mkdtemp(templ);
  }
  ~TempDir() {
    if (dir_.empty()) return;
    // Best-effort cleanup of entry files then the directory.
    const std::string cmd = "rm -rf '" + dir_ + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

TEST(FleetWarmStartTest, RestartServesIdenticalBytesFromDisk) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const auto request = AnalyzeInlineRequest(SyntheticSample(350, 41));

  std::string cold_frame;
  {
    service::ShardedServerOptions options;
    options.shards = 2;
    options.cache_dir = dir.path();
    service::ShardedServer fleet(options);
    const auto responses = RunScript(fleet, {request});
    ASSERT_EQ(responses.size(), 1u);
    ASSERT_TRUE(responses[0].ok) << responses[0].payload;
    EXPECT_EQ(responses[0].args.GetString("cache"), "miss");
    cold_frame = NormalizedFrame(responses[0]);
    ASSERT_NE(fleet.persistent_cache(), nullptr);
    EXPECT_EQ(fleet.persistent_cache()->stats().stored, 1u);
  }

  // "Restart": a brand-new fleet over the same directory must serve the
  // same request as a cache HIT with byte-identical content.
  service::ShardedServerOptions options;
  options.shards = 2;
  options.cache_dir = dir.path();
  service::ShardedServer fleet(options);
  ASSERT_NE(fleet.persistent_cache(), nullptr);
  EXPECT_EQ(fleet.persistent_cache()->stats().loaded, 1u);
  EXPECT_EQ(fleet.persistent_cache()->stats().rejected, 0u);
  const auto responses = RunScript(fleet, {request});
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].ok) << responses[0].payload;
  EXPECT_EQ(responses[0].args.GetString("cache"), "hit");
  // Identical bytes modulo the cache disposition + timing fields.
  service::Response cold;
  {
    const auto decoded = testing::DecodeResponses(cold_frame);
    ASSERT_EQ(decoded.size(), 1u);
    cold = decoded[0];
  }
  service::Response warm = responses[0];
  cold.args.Erase("cache");
  warm.args.Erase("cache");
  EXPECT_EQ(NormalizedFrame(warm), NormalizedFrame(cold));
}

TEST(FleetWarmStartTest, CorruptedEntriesRejectedAndRecomputedNeverServed) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const auto request = AnalyzeInlineRequest(SyntheticSample(320, 43));
  std::string genuine_frame;
  std::string entry_path;
  {
    service::ShardedServerOptions options;
    options.cache_dir = dir.path();
    service::ShardedServer fleet(options);
    const auto responses = RunScript(fleet, {request});
    ASSERT_EQ(responses.size(), 1u);
    ASSERT_TRUE(responses[0].ok);
    genuine_frame = NormalizedFrame(responses[0]);
  }

  // Corrupt the stored entry four different ways; each must be rejected
  // at load, recomputed on request, and the poisoned bytes never served.
  struct Corruption {
    const char* name;
    void (*mutate)(std::string*);
  } corruptions[] = {
      {"body-flip", [](std::string* c) { (*c)[c->size() - 3] ^= 0x40; }},
      {"truncated", [](std::string* c) { c->resize(c->size() / 2); }},
      {"padded", [](std::string* c) { c->append("extra"); }},
      {"garbage", [](std::string* c) { c->assign("sptacX nonsense\n"); }},
  };
  // Locate the single entry file.
  std::string entry_name;
  {
    service::PersistentResultCache probe(dir.path());
    probe.LoadAll([&](std::uint64_t key, std::uint64_t, std::string) {
      entry_name = service::PersistentResultCache::EntryFileName(key);
      return true;
    });
  }
  ASSERT_FALSE(entry_name.empty());
  entry_path = dir.path() + "/" + entry_name;
  std::string pristine;
  {
    std::ifstream in(entry_path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    pristine = buf.str();
  }
  ASSERT_FALSE(pristine.empty());

  for (const auto& corruption : corruptions) {
    std::string damaged = pristine;
    corruption.mutate(&damaged);
    {
      std::ofstream out(entry_path, std::ios::binary | std::ios::trunc);
      out.write(damaged.data(),
                static_cast<std::streamsize>(damaged.size()));
    }
    service::ShardedServerOptions options;
    options.cache_dir = dir.path();
    service::ShardedServer fleet(options);
    ASSERT_NE(fleet.persistent_cache(), nullptr);
    EXPECT_EQ(fleet.persistent_cache()->stats().loaded, 0u)
        << corruption.name;
    EXPECT_EQ(fleet.persistent_cache()->stats().rejected, 1u)
        << corruption.name;
    // The rejected file is unlinked at load, not left outside the
    // eviction index for good.
    struct stat st{};
    EXPECT_NE(::stat(entry_path.c_str(), &st), 0) << corruption.name;
    const auto responses = RunScript(fleet, {request});
    ASSERT_EQ(responses.size(), 1u) << corruption.name;
    ASSERT_TRUE(responses[0].ok) << corruption.name;
    // Recomputed (the rejected entry never warms the cache) and correct.
    EXPECT_EQ(responses[0].args.GetString("cache"), "miss")
        << corruption.name;
    EXPECT_EQ(NormalizedFrame(responses[0]), genuine_frame)
        << corruption.name;
  }
}

// A valid entry whose body is not an analysis result (a kernel table that
// cache dirs written before INGEST became stateless still hold) can never
// be looked up: the loader counts it as rejected and keeps it out of the
// engine cache, while a real ANALYZE entry beside it still warm-starts.
TEST(FleetWarmStartTest, UnusableEntriesAreRejectedNotLoaded) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const auto sample = SyntheticSample(330, 47);
  const service::AnalysisConfig config;  // An inline ANALYZE without args.
  service::AnalysisEngine engine;
  service::AnalysisOutcome outcome;
  std::string error;
  ASSERT_TRUE(engine.Analyze(sample, config, &outcome, &error)) << error;
  {
    service::PersistentResultCache writer(dir.path());
    ASSERT_TRUE(writer.Put(0x1111, 0x2222,
                           "kernel_records=1000 kernels=3\nk0 12 400\n"));
    ASSERT_TRUE(writer.Put(outcome.key,
                           service::AnalysisVerifier(sample, config),
                           *outcome.body));
  }
  service::ShardedServerOptions options;
  options.shards = 2;
  options.cache_dir = dir.path();
  service::ShardedServer fleet(options);
  EXPECT_EQ(fleet.engine().cache().stats().size, 1u);
  const auto responses =
      RunScript(fleet, {AnalyzeInlineRequest(sample),
                        MakeRequest(service::RequestKind::kMetricsProm)});
  ASSERT_EQ(responses.size(), 2u);
  ASSERT_TRUE(responses[0].ok) << responses[0].payload;
  EXPECT_EQ(responses[0].args.GetString("cache"), "hit");
  const std::string& prom = responses[1].payload;
  EXPECT_NE(prom.find("spta_fleet_persistent_loaded_total 1\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("spta_fleet_persistent_rejected_total 1\n"),
            std::string::npos)
      << prom;
}

TEST(FleetWarmStartTest, EntryEncodingRoundTripsAndChecksums) {
  const std::string body = "usable=1 pwcet=123.5\nreport text\n";
  const std::string encoded =
      service::PersistentResultCache::EncodeEntry(7, 11, body);
  std::uint64_t key = 0;
  std::uint64_t verifier = 0;
  std::string decoded;
  ASSERT_TRUE(service::PersistentResultCache::DecodeEntry(
      encoded, &key, &verifier, &decoded));
  EXPECT_EQ(key, 7u);
  EXPECT_EQ(verifier, 11u);
  EXPECT_EQ(decoded, body);
  // Any single-byte flip in the body must be caught by the digest.
  std::string flipped = encoded;
  flipped[flipped.size() - 2] ^= 1;
  EXPECT_FALSE(service::PersistentResultCache::DecodeEntry(
      flipped, &key, &verifier, &decoded));
}

// --- Burst accept (the backlog-16 regression) -----------------------------

// Fires `kStorm` non-blocking connects at a listener whose accept loop is
// NOT running, so completion depends purely on the kernel accept queue:
// the historical hard-coded backlog of 16 strands most of the storm in
// SYN_SENT, the flagged default of 128 completes every one.
std::size_t CompletedConnects(std::uint16_t port, int storm_size) {
  std::vector<int> fds;
  std::vector<pollfd> polls;
  for (int i = 0; i < storm_size; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0) continue;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    fds.push_back(fd);
    polls.push_back({fd, POLLOUT, 0});
  }
  // Give the kernel a beat; completed handshakes report writable with no
  // pending error.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ::poll(polls.data(), polls.size(), 0);
  std::size_t completed = 0;
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if ((polls[i].revents & POLLOUT) != 0) {
      int soerr = 0;
      socklen_t len = sizeof(soerr);
      ::getsockopt(fds[i], SOL_SOCKET, SO_ERROR, &soerr, &len);
      if (soerr == 0) ++completed;
    }
    ::close(fds[i]);
  }
  return completed;
}

TEST(FleetBurstAcceptTest, DefaultBacklogSurvivesConnectionStorm) {
  constexpr int kStorm = 64;
  service::ShardedServerOptions options;
  options.listen_backlog = 128;
  service::ShardedServer fleet(options);
  ASSERT_EQ(fleet.ListenTcp("127.0.0.1", 0), 0);
  // Deliberately NOT started: nothing accepts, the queue takes the hit.
  EXPECT_EQ(CompletedConnects(fleet.bound_port(), kStorm),
            static_cast<std::size_t>(kStorm));
}

TEST(FleetBurstAcceptTest, HistoricalBacklog16DropsStormConnections) {
  constexpr int kStorm = 64;
  service::ShardedServerOptions options;
  options.listen_backlog = 16;  // the old hard-coded value
  service::ShardedServer fleet(options);
  ASSERT_EQ(fleet.ListenTcp("127.0.0.1", 0), 0);
  const std::size_t completed =
      CompletedConnects(fleet.bound_port(), kStorm);
  // The kernel queues ~backlog+1 handshakes; the rest of the storm is
  // left stranded. Leave slack for kernel rounding, but the loss must be
  // unambiguous — this is the regression that motivated the flag.
  EXPECT_LT(completed, static_cast<std::size_t>(kStorm));
  EXPECT_LE(completed, 32u);
}

// The flag reaches the AF_UNIX listener too.
TEST(FleetBurstAcceptTest, ServerOptionsCarryTheBacklogFlag) {
  service::ShardedServerOptions options;
  EXPECT_EQ(options.listen_backlog, 128);  // new default, not 16
  options.listen_backlog = 7;
  service::ShardedServer fleet(options);
  const std::string path =
      "/tmp/spta_fleet_backlog_" + std::to_string(::getpid()) + ".sock";
  ASSERT_EQ(fleet.ListenUnix(path), 0);
  // Deliberately NOT started: at most backlog+1 connects complete.
  std::size_t connected = 0;
  for (int i = 0; i < 16; ++i) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      ++connected;
    }
    ::close(fd);
  }
  EXPECT_GE(connected, 1u);
  EXPECT_LE(connected, 9u);  // backlog 7 (+ kernel slack), not 128
}

// --- HEALTH (fleet liveness/readiness) ------------------------------------

TEST(FleetHealthTest, ScriptHealthReportsFleetAndEveryShard) {
  service::ShardedServerOptions options;
  options.shards = 3;
  service::ShardedServer fleet(options);
  const auto responses =
      RunScript(fleet, {MakeRequest(service::RequestKind::kHealth)});
  ASSERT_EQ(responses.size(), 1u);
  const auto& health = responses[0];
  ASSERT_TRUE(health.ok) << health.payload;
  EXPECT_EQ(health.args.GetString("status"), "ok");
  EXPECT_EQ(health.args.GetString("role"), "fleet");
  EXPECT_EQ(health.args.GetUint("fleet_shards", 0), 3u);
  EXPECT_EQ(health.args.GetUint("fleet_stalled", 99), 0u);
  EXPECT_FALSE(health.args.Has("fleet_alive"));
  EXPECT_FALSE(health.args.Has("fleet_breaker_open"));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NE(
        health.payload.find("== shard " + std::to_string(i) + " =="),
        std::string::npos)
        << health.payload;
  }
  EXPECT_NE(health.payload.find("\nqueue_depth=0 inflight=0 "),
            std::string::npos)
      << health.payload;
}

TEST(FleetHealthTest, TcpHealthAnsweredOnEventLoop) {
  service::ShardedServerOptions options;
  options.shards = 2;
  service::ShardedServer fleet(options);
  ASSERT_EQ(fleet.ListenTcp("127.0.0.1", 0), 0);
  ASSERT_EQ(fleet.Start(), 0);
  const auto responses =
      RunFleetTcp(fleet, {MakeRequest(service::RequestKind::kHealth),
                          MakeRequest(service::RequestKind::kShutdown)});
  EXPECT_EQ(fleet.Wait(), 0);
  ASSERT_EQ(responses.size(), 2u);
  ASSERT_TRUE(responses[0].ok) << responses[0].payload;
  EXPECT_EQ(responses[0].args.GetString("role"), "fleet");
  EXPECT_EQ(responses[0].args.GetString("status"), "ok");
}

// The readiness golden of the whole watchdog story: a shard that HAS work
// and is making NO progress reports stalled=1 and degrades fleet HEALTH —
// while the event loop keeps answering (liveness and readiness split).
TEST(FleetHealthTest, WedgedShardReportsDegradedAndStalled) {
  service::ShardedServerOptions options;
  options.shards = 1;
  options.server.enable_debug_hooks = true;
  options.health_stall_after_ms = 50.0;
  service::ShardedServer fleet(options);
  ASSERT_EQ(fleet.ListenTcp("127.0.0.1", 0), 0);
  ASSERT_EQ(fleet.Start(), 0);

  // Wedge the only shard: one long ANALYZE executing, one queued behind.
  std::string error;
  auto busy = service::Client::ConnectTcp(
      "127.0.0.1", fleet.bound_port(), &error, 30000.0);
  ASSERT_NE(busy, nullptr) << error;
  service::Args slow;
  slow.SetDouble("debug_sleep_ms", 600.0);
  std::vector<service::Request> wedge;
  wedge.push_back(AnalyzeInlineRequest(SyntheticSample(260, 601), slow));
  wedge.push_back(AnalyzeInlineRequest(SyntheticSample(260, 602)));
  const std::string bytes = EncodeScript(wedge);
  ASSERT_TRUE(busy->WriteBytes(bytes));

  // Past the stall threshold (no completion yet), probe on a SECOND
  // connection: the loop must answer even though the shard is buried.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  auto probe = service::Client::ConnectTcp(
      "127.0.0.1", fleet.bound_port(), &error, 30000.0);
  ASSERT_NE(probe, nullptr) << error;
  service::Client& prober = *probe;
  const auto health = prober.Health();
  ASSERT_TRUE(health.ok) << health.payload;
  EXPECT_EQ(health.args.GetString("status"), "degraded");
  EXPECT_EQ(health.args.GetUint("fleet_stalled", 0), 1u);
  EXPECT_NE(health.payload.find("stalled=1"), std::string::npos)
      << health.payload;

  // Reap the wedged work, then verify readiness recovers.
  service::Response response;
  for (std::size_t i = 0; i < wedge.size(); ++i) {
    ASSERT_TRUE(busy->Receive(&response, &error));
    EXPECT_TRUE(response.ok) << response.payload;
  }
  const auto recovered = prober.Health();
  ASSERT_TRUE(recovered.ok) << recovered.payload;
  EXPECT_EQ(recovered.args.GetString("status"), "ok");
  EXPECT_TRUE(prober.Shutdown().ok);
  EXPECT_EQ(fleet.Wait(), 0);
}

// --- Admission control (deadline-aware load shedding) ---------------------

TEST(FleetAdmissionTest, UnmeetableDeadlineIsShedWithRetryHint) {
  service::ShardedServerOptions options;
  options.shards = 1;
  options.server.enable_debug_hooks = true;
  service::ShardedServer fleet(options);

  // Feed the cost model: one ~30ms analysis teaches the shard's EWMA.
  service::Args slow;
  slow.SetDouble("debug_sleep_ms", 30.0);
  auto teach = RunScript(
      fleet, {AnalyzeInlineRequest(SyntheticSample(260, 701), slow)});
  ASSERT_EQ(teach.size(), 1u);
  ASSERT_TRUE(teach[0].ok) << teach[0].payload;

  // A 1ms deadline cannot be met when the estimated cost is ~30ms: the
  // request must be SHED at admission (ERR busy + retry_after_ms), not
  // executed into a doomed ERR deadline.
  service::Args tight;
  tight.SetDouble("deadline_ms", 1.0);
  const auto shed = RunScript(
      fleet, {AnalyzeInlineRequest(SyntheticSample(260, 702), tight)});
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_FALSE(shed[0].ok);
  EXPECT_EQ(shed[0].args.GetString("code"), "busy");
  EXPECT_EQ(shed[0].args.GetString("shed"), "deadline");
  EXPECT_GE(shed[0].args.GetUint("retry_after_ms", 0), 1u);
  EXPECT_EQ(fleet.shed_deadline_total(), 1u);

  // Shed requests are back-pressure, not failures: the ANALYZE failure
  // counters must not move (the teach request is the only ANALYZE seen).
  const auto metrics =
      RunScript(fleet, {MakeRequest(service::RequestKind::kMetrics)});
  ASSERT_EQ(metrics.size(), 1u);
  ASSERT_TRUE(metrics[0].ok);
  EXPECT_EQ(metrics[0].args.GetUint("fleet_shed_deadline", 0), 1u);
  EXPECT_EQ(metrics[0].args.GetUint("errors_total", 99), 0u);
  EXPECT_EQ(metrics[0].args.GetUint("deadline_misses", 99), 0u);
}

TEST(FleetAdmissionTest, NoCostModelMeansAdmit) {
  // With no completed work the EWMA is empty — the fleet must admit (and
  // learn), never guess-shed.
  service::ShardedServerOptions options;
  options.shards = 1;
  options.server.enable_debug_hooks = true;
  service::ShardedServer fleet(options);
  service::Args tight;
  tight.SetDouble("deadline_ms", 10000.0);
  const auto responses = RunScript(
      fleet, {AnalyzeInlineRequest(SyntheticSample(260, 703), tight)});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].ok) << responses[0].payload;
  EXPECT_EQ(fleet.shed_deadline_total(), 0u);
}

// --- Bounded persistent cache ---------------------------------------------

TEST(PersistentCacheBoundsTest, MaxBytesEvictsOldestEntriesByUnlink) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string body(100, 'x');
  const std::uint64_t entry_bytes =
      service::PersistentResultCache::EncodeEntry(1, 1, body).size();
  service::PersistentResultCache::Limits limits;
  limits.max_bytes = 2 * entry_bytes;  // room for exactly two entries
  service::PersistentResultCache cache(dir.path(), limits);
  EXPECT_TRUE(cache.Put(1, 11, body));
  EXPECT_TRUE(cache.Put(2, 22, body));
  EXPECT_TRUE(cache.Put(3, 33, body));  // evicts key 1 (oldest write)
  const auto stats = cache.stats();
  EXPECT_EQ(stats.stored, 3u);
  EXPECT_EQ(stats.evicted, 1u);
  EXPECT_EQ(stats.evicted_bytes, entry_bytes);
  EXPECT_EQ(stats.degraded, 0u);
  struct stat st{};
  const std::string oldest =
      dir.path() + "/" + service::PersistentResultCache::EntryFileName(1);
  EXPECT_NE(::stat(oldest.c_str(), &st), 0);  // unlinked
  const std::string newest =
      dir.path() + "/" + service::PersistentResultCache::EntryFileName(3);
  EXPECT_EQ(::stat(newest.c_str(), &st), 0);  // still there
}

TEST(PersistentCacheBoundsTest, SimulatedEnospcDegradesToMemoryOnly) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string body(100, 'y');
  const std::uint64_t entry_bytes =
      service::PersistentResultCache::EncodeEntry(1, 1, body).size();
  service::PersistentResultCache::Limits limits;
  limits.quota_bytes = entry_bytes;  // device fits exactly one entry
  service::PersistentResultCache cache(dir.path(), limits);
  EXPECT_TRUE(cache.Put(1, 11, body));
  // Second entry: quota exceeded → evict-one-retry frees entry 1 and the
  // write lands. The device is full but the cache self-heals by LRU.
  EXPECT_TRUE(cache.Put(2, 22, body));
  EXPECT_EQ(cache.stats().evicted, 1u);
  EXPECT_FALSE(cache.degraded());
  // An entry LARGER than the whole device cannot be made to fit: typed
  // ENOSPC failure, sticky memory-only degrade, no abort, no corruption.
  const std::string huge(3 * body.size(), 'z');
  EXPECT_FALSE(cache.Put(3, 33, huge));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.enospc_failures, 1u);
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_TRUE(cache.degraded());
  // Degraded is sticky: later writes fail fast without touching disk.
  EXPECT_FALSE(cache.Put(4, 44, body));
  EXPECT_EQ(cache.stats().enospc_failures, 1u);  // no second syscall storm
}

TEST(PersistentCacheBoundsTest, LoadAllSkipsOversizedEntriesUnread) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  service::PersistentResultCache writer(dir.path());
  EXPECT_TRUE(writer.Put(1, 11, "small"));
  EXPECT_TRUE(writer.Put(2, 22, std::string(4096, 'b')));  // over the cap
  service::PersistentResultCache::Limits limits;
  limits.load_max_entry_bytes = 1024;
  service::PersistentResultCache reader(dir.path(), limits);
  std::size_t fed = 0;
  reader.LoadAll([&](std::uint64_t, std::uint64_t, std::string) {
    ++fed;
    return true;
  });
  EXPECT_EQ(fed, 1u);
  const auto stats = reader.stats();
  EXPECT_EQ(stats.loaded, 1u);
  EXPECT_EQ(stats.load_skipped_oversize, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  struct stat st{};
  EXPECT_NE(::stat((dir.path() + "/" +
                    service::PersistentResultCache::EntryFileName(2))
                       .c_str(),
                   &st),
            0);
}

TEST(PersistentCacheBoundsTest, LoadAllCapsEntryCountOnHugeDirs) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty());
  service::PersistentResultCache writer(dir.path());
  constexpr std::uint64_t kEntries = 3000;
  for (std::uint64_t key = 0; key < kEntries; ++key) {
    ASSERT_TRUE(writer.Put(key, key, "e"));
  }
  service::PersistentResultCache::Limits limits;
  limits.load_max_entries = 1000;
  service::PersistentResultCache reader(dir.path(), limits);
  std::size_t fed = 0;
  reader.LoadAll([&](std::uint64_t, std::uint64_t, std::string) {
    ++fed;
    return true;
  });
  EXPECT_EQ(fed, 1000u);
  const auto stats = reader.stats();
  EXPECT_EQ(stats.loaded, 1000u);
  EXPECT_EQ(stats.load_skipped_overflow, kEntries - 1000);
  // Deterministic which entries survive: the cap applies in sorted
  // filename order, so a second load feeds the identical subset.
  std::vector<std::uint64_t> first_keys;
  service::PersistentResultCache reader2(dir.path(), limits);
  reader2.LoadAll([&](std::uint64_t key, std::uint64_t, std::string) {
    first_keys.push_back(key);
    return true;
  });
  EXPECT_EQ(first_keys.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(first_keys.begin(), first_keys.end()));
}

// --- Distributed tracing: one connected span tree per request campaign ----

struct SpanRecord {
  std::string name;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
};

/// Pulls every traced span (one event per line in the Chrome export) with
/// its name and the three propagation ids.
std::vector<SpanRecord> ParseTracedSpans(const std::string& chrome_json) {
  const auto hex_field = [](const std::string& line,
                            const char* key) -> std::uint64_t {
    const std::string needle = std::string("\"") + key + "\":\"";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos) return 0;
    return std::strtoull(line.c_str() + at + needle.size(), nullptr, 16);
  };
  std::vector<SpanRecord> spans;
  std::istringstream in(chrome_json);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"trace_id\":\"") == std::string::npos) continue;
    const std::size_t name_at = line.find("\"name\":\"");
    if (name_at == std::string::npos) continue;
    const std::size_t begin = name_at + 8;
    const std::size_t end = line.find('"', begin);
    if (end == std::string::npos) continue;
    SpanRecord span;
    span.name = line.substr(begin, end - begin);
    span.trace_id = hex_field(line, "trace_id");
    span.span_id = hex_field(line, "span_id");
    span.parent_id = hex_field(line, "parent_span_id");
    spans.push_back(std::move(span));
  }
  return spans;
}

/// The tracer is process-wide; scope it to one test so the rest of the
/// battery keeps running (and asserting) untraced behavior.
class ScopedTracer {
 public:
  ScopedTracer() {
    obs::Tracer::Instance().Clear();
    obs::Tracer::Instance().Enable();
  }
  ~ScopedTracer() {
    obs::Tracer::Instance().Disable();
    obs::Tracer::Instance().Clear();
  }
};

// The end-to-end tracing golden: every verb of a campaign sent under one
// client-side span must surface in the export as a single connected tree —
// client root → fleet route → shard queue_wait/verb → engine internals —
// all sharing the client's trace id, every parent chain terminating at the
// client span. This is the in-process twin of the spta_client → spta_fleet
// smoke (client.cpp stamps the thread context on each outgoing frame; the
// loop and shard re-install it on their side of the wire).
TEST(FleetTracingTest, EveryVerbJoinsOneConnectedTreeRootedAtTheClient) {
  ScopedTracer tracing;
  service::ShardedServerOptions options;
  options.shards = 2;
  service::ShardedServer fleet(options);
  ASSERT_EQ(fleet.ListenTcp("127.0.0.1", 0), 0);
  ASSERT_EQ(fleet.Start(), 0);

  std::string error;
  auto connection = service::Client::ConnectTcp(
      "127.0.0.1", fleet.bound_port(), &error, 30000.0);
  ASSERT_NE(connection, nullptr) << error;
  service::Client& client = *connection;

  const obs::TraceContext wire = obs::MintTraceContext();
  std::size_t requests_sent = 0;
  {
    obs::ScopedTraceContext install(wire);
    obs::ScopedSpan campaign("client", "campaign");
    const auto sample = SyntheticSample(320, 57);
    EXPECT_TRUE(client.Ping().ok);
    EXPECT_TRUE(client.Open("traced").ok);
    EXPECT_TRUE(client.Append("traced", sample).ok);
    EXPECT_TRUE(client.Status("traced").ok);
    EXPECT_TRUE(client.AnalyzeSession("traced").ok);
    EXPECT_TRUE(client.Close("traced").ok);
    EXPECT_TRUE(client.Health().ok);
    EXPECT_TRUE(client.Metrics().ok);
    // The TRACE verb itself rides the same distributed trace; its payload
    // is the fleet's live export and must already carry this trace id.
    const auto served = client.Trace();
    ASSERT_TRUE(served.ok) << served.payload;
    EXPECT_EQ(served.args.GetString("format"), "chrome-trace");
    EXPECT_EQ(served.args.GetUint("enabled", 0), 1u);
    bool served_carries_trace = false;
    for (const auto& span : ParseTracedSpans(served.payload)) {
      if (span.trace_id == wire.trace_id) served_carries_trace = true;
    }
    EXPECT_TRUE(served_carries_trace);
    EXPECT_TRUE(client.Shutdown().ok);
    requests_sent = 10;
  }
  EXPECT_EQ(fleet.Wait(), 0);

  std::ostringstream exported;
  ASSERT_TRUE(obs::Tracer::Instance().WriteChromeTrace(exported));
  const auto spans = ParseTracedSpans(exported.str());
  ASSERT_FALSE(spans.empty());

  // One trace id everywhere, ids minted for every span.
  std::map<std::uint64_t, std::uint64_t> parent_of;
  std::uint64_t root_span = 0;
  std::size_t roots = 0;
  for (const auto& span : spans) {
    EXPECT_EQ(span.trace_id, wire.trace_id) << span.name;
    EXPECT_NE(span.span_id, 0u) << span.name;
    parent_of[span.span_id] = span.parent_id;
    if (span.parent_id == 0) {
      ++roots;
      root_span = span.span_id;
      EXPECT_EQ(span.name, "campaign");
    }
  }
  // Exactly one root: the client-side campaign span.
  EXPECT_EQ(roots, 1u);

  // Connectivity: every span's parent chain reaches the client root with
  // no dangling parent ids (a broken chain means a hop dropped the
  // context when crossing loop → queue → shard worker).
  for (const auto& span : spans) {
    std::uint64_t cursor = span.span_id;
    std::size_t hops = 0;
    while (cursor != root_span && hops < 64) {
      const auto parent = parent_of.find(cursor);
      ASSERT_NE(parent, parent_of.end())
          << span.name << ": chain breaks at " << std::hex << cursor;
      cursor = parent->second;
      ++hops;
    }
    EXPECT_EQ(cursor, root_span) << span.name;
  }

  // Per-verb coverage: the loop routes every request; the shard executes
  // the session verbs; ANALYZE descends into the engine.
  std::map<std::string, std::size_t> by_name;
  for (const auto& span : spans) ++by_name[span.name];
  EXPECT_EQ(by_name["route"], requests_sent);
  EXPECT_GE(by_name["queue_wait"], 1u);
  for (const char* verb :
       {"PING", "OPEN", "APPEND", "STATUS", "ANALYZE", "CLOSE"}) {
    EXPECT_GE(by_name[verb], 1u) << verb;
  }
  EXPECT_GE(by_name["analyze"], 1u);
}

// The TRACE verb over the AF_UNIX listener: same verb, same export format
// as over TCP, answered by the one event loop.
TEST(FleetTracingTest, UnixSocketServesTraceExport) {
  ScopedTracer tracing;
  const std::string path =
      "/tmp/spta_fleet_trace_" + std::to_string(::getpid()) + ".sock";
  service::ShardedServer fleet;
  ASSERT_EQ(fleet.ListenUnix(path), 0);
  ASSERT_EQ(fleet.Start(), 0);
  std::string error;
  auto connection = service::Client::ConnectUnix(path, &error);
  ASSERT_TRUE(connection) << error;
  service::Client& client = *connection;
  std::vector<service::Response> responses = {client.Ping(), client.Trace()};
  EXPECT_TRUE(client.Shutdown().ok);
  EXPECT_EQ(fleet.Wait(), 0);
  EXPECT_TRUE(responses[0].ok);
  const auto& trace = responses[1];
  ASSERT_TRUE(trace.ok) << trace.payload;
  EXPECT_EQ(trace.args.GetString("format"), "chrome-trace");
  EXPECT_GE(trace.args.GetUint("events", 0), 1u);
  EXPECT_NE(trace.payload.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.payload.find("\"name\":\"PING\""), std::string::npos);
}

// Tracing disabled is the default, and it must stay invisible: no spans
// recorded, no ids on the wire (the request frame the fleet sees is the
// pre-tracing byte format), TRACE still answers with an empty export.
TEST(FleetTracingTest, DisabledTracerLeavesNoSpansAndTraceStillAnswers) {
  ASSERT_FALSE(obs::Tracer::Enabled());
  service::ShardedServerOptions options;
  options.shards = 1;
  service::ShardedServer fleet(options);
  std::vector<service::Request> script;
  script.push_back(MakeRequest(service::RequestKind::kPing));
  script.push_back(MakeRequest(service::RequestKind::kTrace));
  const auto responses = RunScript(fleet, script);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_TRUE(responses[0].ok);
  ASSERT_TRUE(responses[1].ok);
  EXPECT_EQ(responses[1].args.GetUint("enabled", 99), 0u);
  EXPECT_TRUE(ParseTracedSpans(responses[1].payload).empty());
}

}  // namespace
}  // namespace spta
