// spta_serve subsystem battery: protocol framing, streaming session
// lifecycle in pipe mode, content-addressed result caching with LRU
// eviction, shard-queue backpressure and deadline rejection, graceful
// drain, and the golden guarantee that a served pWCET quantile is
// bit-identical to the batch pipeline's on the same campaign.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/campaign.hpp"
#include "analysis/sample_io.hpp"
#include "apps/tvca.hpp"
#include "common/double_text.hpp"
#include "common/hash.hpp"
#include "mbpta/convergence.hpp"
#include "mbpta/mbpta.hpp"
#include "obs/trace.hpp"
#include "service/client.hpp"
#include "service/convergence_tracker.hpp"
#include "service/engine.hpp"
#include "service/frame_reader.hpp"
#include "service/protocol.hpp"
#include "service/result_cache.hpp"
#include "service/sharded_server.hpp"
#include "service_harness.hpp"
#include "sim/config.hpp"
#include "trace/record.hpp"

namespace spta {
namespace {

using testing::AnalyzeInlineRequest;
using testing::MakeRequest;
using testing::PipeFleet;
using testing::RunPipe;
using testing::RunScript;
using testing::SyntheticSample;
using Frame = service::FrameReassembler::Result;

std::vector<double> TimesOf(const std::vector<mbpta::PathObservation>& obs) {
  std::vector<double> times;
  times.reserve(obs.size());
  for (const auto& o : obs) times.push_back(o.time);
  return times;
}

/// Cache counters of the one engine every shard shares.
service::ResultCache::Stats CacheStats(service::ShardedServer& fleet) {
  return fleet.engine().cache().stats();
}

TEST(ProtocolTest, RequestRoundTripsThroughFrame) {
  service::Request request;
  request.kind = service::RequestKind::kAppend;
  request.args.Set("session", "s1");
  request.args.SetUint("count", 2);
  request.payload = "100.5\n200.25,3\n";

  std::string wire;
  service::AppendRequestFrameWithTrace(request, &wire);
  service::FrameReassembler reassembler;
  reassembler.Feed(wire);

  std::string type;
  std::string body;
  std::string error;
  ASSERT_EQ(reassembler.Next(&type, &body, &error), Frame::kFrame);
  service::Request decoded;
  ASSERT_TRUE(service::BuildRequest(type, body, &decoded, &error)) << error;
  EXPECT_EQ(decoded.kind, service::RequestKind::kAppend);
  EXPECT_EQ(decoded.args.GetString("session"), "s1");
  EXPECT_EQ(decoded.args.GetUint("count", 0), 2u);
  EXPECT_EQ(decoded.payload, request.payload);

  // And a second frame on the same stream stays framed.
  service::Response response = service::OkResponse();
  response.args.SetDouble("pwcet", 12345.6789);
  wire.clear();
  service::AppendResponseFrame(response, &wire);
  reassembler.Feed(wire);
  ASSERT_EQ(reassembler.Next(&type, &body, &error), Frame::kFrame);
  service::Response decoded_response;
  ASSERT_TRUE(service::BuildResponse(type, body, &decoded_response, &error))
      << error;
  EXPECT_TRUE(decoded_response.ok);
  EXPECT_DOUBLE_EQ(decoded_response.args.GetDouble("pwcet", 0.0), 12345.6789);
}

TEST(ProtocolTest, MalformedFramesAreReportedNotFatal) {
  // Each stream ends after its bytes: Finish applies the EOF rules.
  const auto finish = [](const std::string& wire, std::string* error) {
    service::FrameReassembler reassembler;
    reassembler.Feed(wire);
    std::string type;
    std::string body;
    return reassembler.Finish(&type, &body, error);
  };
  std::string error;
  EXPECT_EQ(finish("not a frame\n", &error), Frame::kMalformed);
  EXPECT_NE(error.find("bad frame header"), std::string::npos);

  EXPECT_EQ(finish("spta1 PING 50\nshort", &error), Frame::kMalformed);
  EXPECT_NE(error.find("truncated"), std::string::npos);

  EXPECT_EQ(finish("", &error), Frame::kNeedMore);  // A clean EOF.
}

TEST(ProtocolTest, DoubleEncodingRoundTripsBitExactly) {
  const double values[] = {1.0 / 3.0, 1e-12, 123456789.123456789,
                           0x1.fffffffffffffp+1023};
  for (const double v : values) {
    const std::string text = DoubleText(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
}

TEST(SampleIoTest, TryReadRejectsNonFiniteAndNegative) {
  std::vector<mbpta::PathObservation> out;
  std::string error;

  EXPECT_FALSE(analysis::TryReadSamplesCsv("cycles,path_id\n100\nnan\n",
                                           &out, nullptr, &error));
  EXPECT_NE(error.find("non-finite"), std::string::npos);
  EXPECT_TRUE(out.empty());

  EXPECT_FALSE(
      analysis::TryReadSamplesCsv("100\ninf\n", &out, nullptr, &error));
  EXPECT_NE(error.find("non-finite"), std::string::npos);

  EXPECT_FALSE(
      analysis::TryReadSamplesCsv("100\n-5\n", &out, nullptr, &error));
  EXPECT_NE(error.find("negative execution time"), std::string::npos);

  EXPECT_FALSE(
      analysis::TryReadSamplesCsv("100,abc\n", &out, nullptr, &error));
  EXPECT_NE(error.find("bad path id"), std::string::npos);

  EXPECT_TRUE(analysis::TryReadSamplesCsv(
      "cycles,path_id\n# comment\n100,1\n200\n", &out, nullptr, &error));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].path_id, 1u);
  EXPECT_EQ(out[1].time, 200.0);
}

TEST(SampleIoDeathTest, AbortingReaderRejectsNaN) {
  EXPECT_DEATH(analysis::ReadSamplesCsv("100\nnan\n"),
               "non-finite execution time");
}

/// A cache body from its bytes.
service::ResultCache::Body Body(const char* bytes) {
  return std::make_shared<const std::string>(bytes);
}

/// The looked-up body's bytes, or "" on a miss.
std::string BytesOf(const service::ResultCache::Body& body) {
  return body != nullptr ? *body : std::string();
}

TEST(ResultCacheTest, LruEvictionAtCapacity) {
  service::ResultCache cache(2);
  cache.Insert(1, 10, Body("one"));
  cache.Insert(2, 20, Body("two"));
  ASSERT_NE(cache.Lookup(1, 10), nullptr);  // 1 is now most-recent
  cache.Insert(3, 30, Body("three"));       // evicts 2 (LRU)

  EXPECT_EQ(cache.Lookup(2, 20), nullptr);
  EXPECT_EQ(BytesOf(cache.Lookup(1, 10)), "one");
  EXPECT_EQ(BytesOf(cache.Lookup(3, 30)), "three");

  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_NEAR(stats.HitRatio(), 0.75, 1e-12);
}

TEST(ResultCacheTest, KeyCollisionIsDetectedNotServed) {
  service::ResultCache cache(4);
  cache.Insert(1, 10, Body("first"));

  // Same 64-bit key, different verifier: a colliding request must never
  // receive the other request's cached result.
  EXPECT_EQ(cache.Lookup(1, 99), nullptr);
  auto stats = cache.stats();
  EXPECT_EQ(stats.collisions, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);

  // Re-insertion under the colliding key replaces the entry (latest
  // wins); the original verifier then misses.
  cache.Insert(1, 99, Body("second"));
  EXPECT_EQ(BytesOf(cache.Lookup(1, 99)), "second");
  EXPECT_EQ(cache.Lookup(1, 10), nullptr);
  stats = cache.stats();
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.collisions, 2u);
}

// A result is stored once: the miss hands out the body it cached, and a
// hit hands out that same body, not a copy.
TEST(AnalysisEngineTest, HitSharesTheCachedBody) {
  service::AnalysisEngine engine;
  const auto obs = SyntheticSample(240, 13);
  service::AnalysisConfig config;
  config.require_iid = false;
  service::AnalysisOutcome miss;
  service::AnalysisOutcome hit;
  std::string error;
  ASSERT_TRUE(engine.Analyze(obs, config, &miss, &error)) << error;
  ASSERT_TRUE(engine.Analyze(obs, config, &hit, &error)) << error;
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_TRUE(hit.cache_hit);
  ASSERT_NE(miss.body, nullptr);
  EXPECT_EQ(hit.body.get(), miss.body.get());
  EXPECT_EQ(*miss.body, miss.result.Encode() + "\n" + miss.report);
  EXPECT_EQ(hit.report, miss.report);
}

TEST(AnalysisVerifierTest, IndependentOfAnalysisKey) {
  const auto obs = SyntheticSample(64, 1);
  service::AnalysisConfig config;
  EXPECT_NE(service::AnalysisVerifier(obs, config),
            service::AnalysisKey(obs, config));

  auto perturbed = obs;
  perturbed[10].time += 1e-9;
  EXPECT_NE(service::AnalysisVerifier(perturbed, config),
            service::AnalysisVerifier(obs, config));
  EXPECT_EQ(service::AnalysisVerifier(obs, config),
            service::AnalysisVerifier(obs, config));  // deterministic
}

TEST(AnalysisKeyTest, SensitiveToSamplesAndConfig) {
  const auto obs = SyntheticSample(64, 1);
  service::AnalysisConfig config;
  const std::uint64_t base = service::AnalysisKey(obs, config);

  auto perturbed = obs;
  perturbed[10].time += 1e-9;
  EXPECT_NE(service::AnalysisKey(perturbed, config), base);

  auto path_changed = obs;
  path_changed[10].path_id = 7;
  EXPECT_NE(service::AnalysisKey(path_changed, config), base);

  service::AnalysisConfig other = config;
  other.prob = 1e-9;
  EXPECT_NE(service::AnalysisKey(obs, other), base);

  EXPECT_EQ(service::AnalysisKey(obs, config), base);  // deterministic
}

// One hostile request must get an ERR, never abort the shared daemon:
// every SPTA_REQUIRE reachable from client-controlled sample sizes and
// analysis options has to be caught by the engine's validation first.
TEST(ServerPipeTest, HostileAnalyzeParametersGetErrNotAbort) {
  service::ShardedServer fleet;

  service::Args tiny;  // 3 samples reach the i.i.d. gate's n >= 4 floor
  tiny.SetUint("min_blocks", 1);
  service::Args lags_too_large;  // default lags=20 vs a 10-sample payload
  lags_too_large.SetUint("min_blocks", 1);
  service::Args lags_zero;
  lags_zero.SetUint("lags", 0);
  service::Args two_blocks;  // 120/60 = 2 complete blocks < 3
  two_blocks.SetUint("block_size", 60);
  service::Args per_path_floor;  // path floor 4 <= default lags 20
  per_path_floor.Set("per_path", "1");
  per_path_floor.SetUint("min_blocks", 4);
  per_path_floor.SetUint("min_path_samples", 4);

  const auto responses = RunScript(
      fleet, {AnalyzeInlineRequest(SyntheticSample(3, 1), tiny),
               AnalyzeInlineRequest(SyntheticSample(10, 2), lags_too_large),
               AnalyzeInlineRequest(SyntheticSample(120, 3), lags_zero),
               AnalyzeInlineRequest(SyntheticSample(120, 4), two_blocks),
               AnalyzeInlineRequest(SyntheticSample(120, 5), per_path_floor),
               MakeRequest(service::RequestKind::kPing),
               MakeRequest(service::RequestKind::kShutdown)});
  ASSERT_EQ(responses.size(), 7u);
  EXPECT_FALSE(responses[0].ok);
  EXPECT_NE(responses[0].payload.find("too small"), std::string::npos);
  EXPECT_FALSE(responses[1].ok);
  EXPECT_NE(responses[1].payload.find("lags"), std::string::npos);
  EXPECT_FALSE(responses[2].ok);
  EXPECT_NE(responses[2].payload.find("lags"), std::string::npos);
  EXPECT_FALSE(responses[3].ok);
  EXPECT_NE(responses[3].payload.find("blocks"), std::string::npos);
  EXPECT_FALSE(responses[4].ok);
  EXPECT_NE(responses[4].payload.find("per-path"), std::string::npos);
  // The daemon is still alive and answering after all of the above.
  EXPECT_TRUE(responses[5].ok);
  EXPECT_TRUE(responses[6].ok);
}

TEST(ConvergenceTrackerTest, MatchesBatchCheckConvergenceAnyChunking) {
  const auto obs = SyntheticSample(1100, 42);
  const auto times = TimesOf(obs);
  mbpta::ConvergenceOptions options;
  options.initial_runs = 200;
  options.step_runs = 150;
  const auto batch = mbpta::CheckConvergence(times, options);

  for (const std::size_t chunk : {1100ul, 250ul, 37ul}) {
    service::ConvergenceTracker tracker(options);
    std::vector<double> fed;
    for (std::size_t offset = 0; offset < times.size(); offset += chunk) {
      const std::size_t n = std::min(chunk, times.size() - offset);
      fed.insert(fed.end(), times.begin() + offset,
                 times.begin() + offset + n);
      tracker.Update(fed);
    }
    EXPECT_EQ(tracker.converged(), batch.converged);
    EXPECT_EQ(tracker.runs_required(), batch.runs_required);
    ASSERT_EQ(tracker.points().size(), batch.points.size());
    for (std::size_t i = 0; i < batch.points.size(); ++i) {
      EXPECT_EQ(tracker.points()[i].runs, batch.points[i].runs);
      EXPECT_EQ(tracker.points()[i].pwcet, batch.points[i].pwcet);
      EXPECT_EQ(tracker.points()[i].rel_delta, batch.points[i].rel_delta);
    }
  }
}

TEST(ServerPipeTest, SessionLifecycleEndToEnd) {
  service::ShardedServerOptions options;
  options.shards = 2;
  options.server.convergence.initial_runs = 200;
  options.server.convergence.step_runs = 100;
  PipeFleet pipe(options);

  const auto obs = SyntheticSample(600, 7);

  std::vector<service::Request> script;
  script.push_back(MakeRequest(service::RequestKind::kPing));
  {
    service::Request open = MakeRequest(service::RequestKind::kOpen);
    open.args.Set("session", "sat1");
    script.push_back(open);
  }
  for (std::size_t offset = 0; offset < obs.size(); offset += 200) {
    service::Request append = MakeRequest(service::RequestKind::kAppend);
    append.args.Set("session", "sat1");
    append.args.SetUint("count", 200);
    append.payload = service::EncodeSamplePayload(
        std::vector<mbpta::PathObservation>(obs.begin() + offset,
                                            obs.begin() + offset + 200));
    script.push_back(append);
  }
  {
    service::Request status = MakeRequest(service::RequestKind::kStatus);
    status.args.Set("session", "sat1");
    script.push_back(status);
  }
  {
    service::Request analyze = MakeRequest(service::RequestKind::kAnalyze);
    analyze.args.Set("session", "sat1");
    analyze.args.Set("require_iid", "0");
    script.push_back(analyze);
  }
  {
    service::Request close = MakeRequest(service::RequestKind::kClose);
    close.args.Set("session", "sat1");
    script.push_back(close);
  }
  script.push_back(MakeRequest(service::RequestKind::kShutdown));

  pipe.Send(script);
  const auto responses = pipe.Finish();
  ASSERT_EQ(responses.size(), script.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_TRUE(responses[i].ok) << "response " << i << ": "
                                 << responses[i].payload;
  }

  // Appends report the growing total; convergence state matches the batch
  // criterion over the same stream.
  EXPECT_EQ(responses[2].args.GetUint("total", 0), 200u);
  EXPECT_EQ(responses[4].args.GetUint("total", 0), 600u);
  const auto batch = mbpta::CheckConvergence(TimesOf(obs),
                                             options.server.convergence);
  EXPECT_EQ(responses[5].args.GetUint("converged", 9) == 1, batch.converged);
  EXPECT_EQ(responses[5].args.GetUint("runs_required", 9),
            batch.runs_required);

  // The analysis response carries the quantile and a cache miss.
  EXPECT_EQ(responses[6].args.GetString("cache"), "miss");
  EXPECT_TRUE(responses[6].args.Has("pwcet"));
  EXPECT_EQ(responses[6].args.GetUint("sample_size", 0), 600u);

  // Close really closed: the session is gone.
  for (std::size_t i = 0; i < pipe.fleet().shard_count(); ++i) {
    EXPECT_EQ(pipe.fleet().shard(i).sessions().open_count(), 0u);
  }
  EXPECT_TRUE(pipe.fleet().shutdown_requested());
}

TEST(ServerPipeTest, CacheHitOnIdenticalResubmission) {
  // With the warm memo off, the repeat is answered by the shard engine's
  // result cache (the memo path is pinned by FleetEquivalenceTest).
  service::ShardedServerOptions fleet_options;
  fleet_options.warm_memo_capacity = 0;
  service::ShardedServer fleet(fleet_options);
  const auto obs = SyntheticSample(240, 11);

  service::Args options;
  options.Set("require_iid", "0");
  const auto responses = RunScript(
      fleet, {AnalyzeInlineRequest(obs, options),
               AnalyzeInlineRequest(obs, options),
               MakeRequest(service::RequestKind::kShutdown)});
  ASSERT_EQ(responses.size(), 3u);
  ASSERT_TRUE(responses[0].ok) << responses[0].payload;
  ASSERT_TRUE(responses[1].ok) << responses[1].payload;

  EXPECT_EQ(responses[0].args.GetString("cache"), "miss");
  EXPECT_EQ(responses[1].args.GetString("cache"), "hit");
  EXPECT_EQ(responses[0].args.GetString("key"),
            responses[1].args.GetString("key"));
  // The cached answer is byte-identical: same quantile, same report.
  EXPECT_EQ(responses[0].args.GetString("pwcet"),
            responses[1].args.GetString("pwcet"));
  EXPECT_EQ(responses[0].payload, responses[1].payload);

  const auto stats = CacheStats(fleet);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

// K identical ANALYZEs pipelined into a multi-shard fleet run one EVT fit:
// identical bodies route to one shard, and its engine answers every
// request queued behind the first from that result. The first computes
// and answers cache=miss; the rest answer cache=hit with the same bytes.
// A debug sleep before each analysis keeps all K queued together, so none
// can slip past on the loop's warm memo.
TEST(ServerPipeTest, PipelinedIdenticalAnalyzesComputeOnce) {
  constexpr std::size_t kRequests = 8;
  service::ShardedServerOptions options;
  options.shards = 2;
  options.server.enable_debug_hooks = true;
  PipeFleet pipe(options);
  const auto obs = SyntheticSample(240, 19);

  service::Args no_iid;
  no_iid.Set("require_iid", "0");
  no_iid.Set("debug_sleep_ms", "50");
  std::vector<service::Request> script(kRequests,
                                       AnalyzeInlineRequest(obs, no_iid));
  script.push_back(MakeRequest(service::RequestKind::kShutdown));
  pipe.Send(script);
  const auto responses = pipe.Finish();
  ASSERT_EQ(responses.size(), kRequests + 1);

  for (std::size_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(responses[i].ok) << i << ": " << responses[i].payload;
    EXPECT_EQ(responses[i].args.GetString("cache"), i == 0 ? "miss" : "hit")
        << "response " << i;
    EXPECT_EQ(responses[i].args.GetString("pwcet"),
              responses[0].args.GetString("pwcet"));
    EXPECT_EQ(responses[i].payload, responses[0].payload);
  }
  const auto stats = CacheStats(pipe.fleet());
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kRequests - 1);
}

TEST(ServerPipeTest, LruEvictionBoundsTheCache) {
  // One shard executing synchronously => analyses insert into the cache in
  // request order, so the eviction sequence is deterministic. The warm
  // memo is off so the resubmission reaches the engine's cache.
  service::ShardedServerOptions options;
  options.cache_capacity = 2;
  options.warm_memo_capacity = 0;
  service::ShardedServer fleet(options);

  service::Args no_iid;
  no_iid.Set("require_iid", "0");
  std::vector<service::Request> script;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    script.push_back(
        AnalyzeInlineRequest(SyntheticSample(240, seed), no_iid));
  }
  script.push_back(MakeRequest(service::RequestKind::kShutdown));
  const auto responses = RunScript(fleet, script);
  ASSERT_EQ(responses.size(), 4u);

  // Resubmit seed 1 on a fresh stream, after the first drained: seed 3's
  // insertion evicted it (LRU), so it must be a miss and evict seed 2.
  const auto resubmit = RunScript(
      fleet, {AnalyzeInlineRequest(SyntheticSample(240, 1u), no_iid),
              MakeRequest(service::RequestKind::kShutdown)});
  ASSERT_EQ(resubmit.size(), 2u);
  EXPECT_EQ(resubmit[0].args.GetString("cache"), "miss");
  const auto stats = fleet.engine().cache().stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.size, 2u);
}

// Backpressure is the shard queue's bound: with one request executing and
// one queued, every further request is answered ERR busy at once instead
// of being buffered.
TEST(ServerPipeTest, BackpressureRejectsWhenQueueFull) {
  service::ShardedServerOptions options;
  options.shard_queue_capacity = 1;
  options.server.enable_debug_hooks = true;
  PipeFleet pipe(options);

  service::Args slow;
  slow.Set("require_iid", "0");
  slow.SetDouble("debug_sleep_ms", 1000.0);
  service::Args fast;
  fast.Set("require_iid", "0");

  pipe.Send({AnalyzeInlineRequest(SyntheticSample(120, 5), slow)});
  // Wait until the shard has taken the slow request off its queue.
  const auto picked_up = [&] {
    const std::string shards = pipe.fleet().FleetHealthResponse().payload;
    return shards.find("queue_depth=0 inflight=1") != std::string::npos;
  };
  for (int i = 0; i < 500 && !picked_up(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(picked_up());
  pipe.Send({AnalyzeInlineRequest(SyntheticSample(120, 6), fast),
             AnalyzeInlineRequest(SyntheticSample(120, 8), fast),
             AnalyzeInlineRequest(SyntheticSample(120, 9), fast),
             MakeRequest(service::RequestKind::kShutdown)});
  const auto responses = pipe.Finish();
  ASSERT_EQ(responses.size(), 5u);
  EXPECT_TRUE(responses[0].ok);  // executing
  EXPECT_TRUE(responses[1].ok);  // queued behind it
  for (const std::size_t i : {std::size_t{2}, std::size_t{3}}) {
    EXPECT_FALSE(responses[i].ok) << i;
    EXPECT_EQ(responses[i].args.GetString("code"), "busy") << i;
  }
  EXPECT_TRUE(responses[4].ok);  // shutdown ack after drain
  EXPECT_EQ(pipe.fleet().shard(0).metrics().busy_rejections(), 2u);
}

TEST(ServerPipeTest, ExpiredDeadlineIsRejectedNotExecuted) {
  service::ShardedServerOptions options;
  options.server.enable_debug_hooks = true;
  service::Args slow;
  slow.Set("require_iid", "0");
  slow.SetDouble("debug_sleep_ms", 200.0);
  service::Args tight;
  tight.Set("require_iid", "0");
  tight.SetDouble("deadline_ms", 1.0);  // expires while queued behind `slow`

  PipeFleet pipe(options);
  pipe.Send({AnalyzeInlineRequest(SyntheticSample(120, 5), slow),
             AnalyzeInlineRequest(SyntheticSample(120, 6), tight),
             MakeRequest(service::RequestKind::kShutdown)});
  const auto responses = pipe.Finish();
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].ok);
  EXPECT_FALSE(responses[1].ok);
  EXPECT_EQ(responses[1].args.GetString("code"), "deadline");
  EXPECT_EQ(pipe.fleet().shard(0).metrics().deadline_misses(), 1u);
}

TEST(ServerPipeTest, DrainOnShutdownLosesNoAcceptedRequest) {
  service::ShardedServerOptions options;
  options.shards = 4;

  constexpr std::size_t kRequests = 24;
  service::Args no_iid;
  no_iid.Set("require_iid", "0");
  std::vector<service::Request> script;
  for (std::size_t i = 0; i < kRequests; ++i) {
    script.push_back(
        AnalyzeInlineRequest(SyntheticSample(150, 100 + i), no_iid));
  }
  script.push_back(MakeRequest(service::RequestKind::kShutdown));

  PipeFleet pipe(options);
  pipe.Send(script);
  const auto responses = pipe.Finish();
  ASSERT_EQ(responses.size(), kRequests + 1);
  for (std::size_t i = 0; i < kRequests; ++i) {
    EXPECT_TRUE(responses[i].ok) << responses[i].payload;
    EXPECT_TRUE(responses[i].args.Has("pwcet"));
  }
  EXPECT_TRUE(responses.back().ok);
  EXPECT_EQ(responses.back().args.GetString("drained"), "1");
  // The shards executed every analysis; SHUTDOWN is the loop's.
  std::uint64_t executed = 0;
  std::uint64_t errors = 0;
  for (std::size_t i = 0; i < pipe.fleet().shard_count(); ++i) {
    executed += pipe.fleet().shard(i).metrics().requests_total();
    errors += pipe.fleet().shard(i).metrics().errors_total();
  }
  EXPECT_EQ(executed, kRequests);
  EXPECT_EQ(errors, 0u);
}

TEST(ServerPipeTest, MetricsSurfaceCountsTraffic) {
  service::ShardedServerOptions options;
  options.warm_memo_capacity = 0;  // the repeat is an engine cache hit
  service::ShardedServer fleet(options);
  const auto obs = SyntheticSample(240, 11);
  service::Args no_iid;
  no_iid.Set("require_iid", "0");
  const auto responses =
      RunScript(fleet, {AnalyzeInlineRequest(obs, no_iid),
                        AnalyzeInlineRequest(obs, no_iid),
                        MakeRequest(service::RequestKind::kMetrics)});
  ASSERT_EQ(responses.size(), 3u);
  const auto& metrics = responses[2];
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.args.GetUint("analyses_total", 0), 2u);
  EXPECT_EQ(metrics.args.GetUint("cache_hits", 0), 1u);
  EXPECT_EQ(metrics.args.GetUint("cache_misses", 0), 1u);
  EXPECT_NEAR(metrics.args.GetDouble("cache_hit_ratio", 0.0), 0.5, 1e-12);
  // The human dump carries the latency histograms.
  EXPECT_NE(metrics.payload.find("cold analyze latency"), std::string::npos);
}

// The Snapshot/Render key order is a wire contract (docs/SERVICE.md):
// scrapers parse these lines positionally, so the order is golden-tested.
// If this test fails because a key was ADDED, extend the expectation; a
// reorder or rename is a breaking change and needs a docs + version call.
TEST(ServerPipeTest, MetricsSnapshotKeyOrderIsGolden) {
  service::ShardedServer fleet;
  const auto obs = SyntheticSample(240, 11);
  service::Args no_iid;
  no_iid.Set("require_iid", "0");
  RunScript(fleet, {MakeRequest(service::RequestKind::kPing),
                    AnalyzeInlineRequest(obs, no_iid),
                    MakeRequest(service::RequestKind::kStatus)});
  service::Server& shard = fleet.shard(0);
  std::vector<std::string> keys;
  const service::Args snapshot = shard.metrics().Snapshot();
  for (const auto& [key, value] : snapshot.values()) keys.push_back(key);
  const std::vector<std::string> golden = {
      "analyses_total",   "busy_rejections", "deadline_misses",
      "errors_total",     "requests_ANALYZE", "requests_PING",
      "requests_STATUS",  "requests_total"};
  EXPECT_EQ(keys, golden);
  keys.clear();
  const service::Args cache = service::CacheArgs(fleet.engine().cache().stats());
  for (const auto& [key, value] : cache.values()) keys.push_back(key);
  const std::vector<std::string> cache_golden = {
      "cache_capacity", "cache_collisions", "cache_evictions",
      "cache_hit_ratio", "cache_hits", "cache_misses", "cache_size"};
  EXPECT_EQ(keys, cache_golden);

  // Render = the Snapshot lines in the same order, then the latency mean,
  // then the ASCII histograms (cold before cache-hit when both exist).
  const auto text = shard.metrics().Render();
  std::size_t pos = 0;
  for (const auto& key : golden) {
    const std::size_t at = text.find(key + " ", pos);
    ASSERT_NE(at, std::string::npos) << key;
    EXPECT_GE(at, pos) << key << " out of order";
    pos = at;
  }
  EXPECT_NE(text.find("analyze_latency_mean_us ", pos), std::string::npos);
  EXPECT_NE(text.find("cold analyze latency", pos), std::string::npos);
}

/// Every line is a comment or `name[{labels}] value` — no stray text.
/// Returns the sample-line count.
std::size_t ExpectValidExposition(const std::string& text) {
  std::istringstream lines(text);
  std::string line;
  std::size_t samples = 0;
  while (std::getline(lines, line)) {
    EXPECT_FALSE(line.empty());
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
      continue;
    }
    const std::size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << line;
    if (space == std::string::npos) continue;
    EXPECT_EQ(line.rfind("spta_", 0), 0u) << line;
    char* end = nullptr;
    std::strtod(line.c_str() + space + 1, &end);
    EXPECT_EQ(*end, '\0') << line;
    ++samples;
  }
  return samples;
}

TEST(ServerPipeTest, MetricsPromServesValidExposition) {
  service::ShardedServer fleet;
  const auto obs = SyntheticSample(240, 11);
  service::Args no_iid;
  no_iid.Set("require_iid", "0");
  const auto responses =
      RunScript(fleet, {AnalyzeInlineRequest(obs, no_iid),
                        AnalyzeInlineRequest(obs, no_iid),
                        MakeRequest(service::RequestKind::kMetricsProm)});
  ASSERT_EQ(responses.size(), 3u);
  ASSERT_TRUE(responses[2].ok);
  EXPECT_EQ(responses[2].args.GetString("format", ""), "prometheus-0.0.4");

  // The served body is the fleet exposition: one sample per fleet family
  // at one shard.
  const std::string& served = responses[2].payload;
  EXPECT_EQ(ExpectValidExposition(served), 8u);
  EXPECT_NE(served.find("spta_fleet_shards 1"), std::string::npos);
  EXPECT_NE(served.find("spta_fleet_requests_total{shard=\"0\"} 2"),
            std::string::npos);
  EXPECT_NE(served.find("spta_fleet_memo_hits_total{shard=\"0\"} 1"),
            std::string::npos);

  EXPECT_NE(served.find("# TYPE spta_fleet_requests_total counter"),
            std::string::npos);
  EXPECT_NE(served.find("# TYPE spta_fleet_shards gauge"),
            std::string::npos);
  EXPECT_EQ(served.find("spta_atlas_"), std::string::npos);
}

// The acceptance-criteria golden check: a pWCET quantile served over the
// wire equals the batch pipeline's on the same parallel campaign,
// bit for bit (the %.17g wire encoding round-trips the doubles exactly).
TEST(ServedVsBatchGoldenTest, ServedQuantileEqualsBatchBitForBit) {
  const apps::TvcaApp app;
  const auto frame = app.BuildFrame(3);
  const auto samples =
      analysis::RunCampaign(analysis::Workload(frame.trace, 300, 20170327),
                            {sim::RandLeon3Config(), 2})
          .samples;
  const auto obs = analysis::ToPathObservations(samples);

  // Batch side: the library pipeline, straight on the campaign doubles.
  mbpta::MbptaOptions batch_opts;
  batch_opts.require_iid = false;
  const auto batch = mbpta::AnalyzeSample(TimesOf(obs), batch_opts);
  ASSERT_TRUE(batch.curve.has_value());
  const double batch_pwcet = batch.curve->QuantileForExceedance(1e-12);

  // Served side: streaming ingestion in chunks, then ANALYZE.
  std::vector<service::Request> script;
  service::Request open = MakeRequest(service::RequestKind::kOpen);
  open.args.Set("session", "golden");
  script.push_back(open);
  for (std::size_t offset = 0; offset < obs.size(); offset += 100) {
    service::Request append = MakeRequest(service::RequestKind::kAppend);
    append.args.Set("session", "golden");
    append.payload = service::EncodeSamplePayload(
        std::vector<mbpta::PathObservation>(obs.begin() + offset,
                                            obs.begin() + offset + 100));
    script.push_back(append);
  }
  service::Request analyze = MakeRequest(service::RequestKind::kAnalyze);
  analyze.args.Set("session", "golden");
  analyze.args.Set("require_iid", "0");
  analyze.args.SetDouble("prob", 1e-12);
  script.push_back(analyze);
  script.push_back(MakeRequest(service::RequestKind::kShutdown));

  const auto responses = RunPipe(script);
  ASSERT_EQ(responses.size(), script.size());
  const auto& served = responses[responses.size() - 2];
  ASSERT_TRUE(served.ok) << served.payload;
  ASSERT_TRUE(served.args.Has("pwcet"));
  const double served_pwcet =
      std::strtod(served.args.GetString("pwcet").c_str(), nullptr);
  EXPECT_EQ(served_pwcet, batch_pwcet);  // bit-for-bit, not NEAR
  EXPECT_EQ(served.args.GetUint("sample_size", 0), obs.size());
}

// --- HEALTH (liveness/readiness) ------------------------------------------

TEST(HealthTest, PipeReportsFleetReadiness) {
  const auto responses =
      RunPipe({MakeRequest(service::RequestKind::kHealth),
               MakeRequest(service::RequestKind::kShutdown)});
  ASSERT_EQ(responses.size(), 2u);
  const auto& health = responses[0];
  ASSERT_TRUE(health.ok) << health.payload;
  EXPECT_EQ(health.args.GetString("status"), "ok");
  EXPECT_EQ(health.args.GetString("role"), "fleet");
  EXPECT_EQ(health.args.GetUint("fleet_shards", 0), 1u);
  EXPECT_EQ(health.args.GetUint("fleet_inflight", 99), 0u);
  EXPECT_EQ(health.args.GetUint("draining", 99), 0u);
  EXPECT_NE(health.payload.find("== shard 0 =="), std::string::npos);
}

TEST(UnixSocketTest, ClientServerEndToEndOverSocket) {
  const std::string path =
      "/tmp/spta_service_test_" + std::to_string(::getpid()) + ".sock";
  service::ShardedServerOptions options;
  options.shards = 2;
  service::ShardedServer fleet(options);
  ASSERT_EQ(fleet.ListenUnix(path), 0);
  ASSERT_EQ(fleet.Start(), 0);

  std::string error;
  auto connection = service::Client::ConnectUnix(path, &error);
  ASSERT_TRUE(connection) << error;
  service::Client& client = *connection;
  EXPECT_TRUE(client.Ping().ok);

  // HEALTH over the socket is answered by the event loop.
  const auto health = client.Health();
  ASSERT_TRUE(health.ok) << health.payload;
  EXPECT_EQ(health.args.GetString("status"), "ok");
  EXPECT_EQ(health.args.GetString("role"), "fleet");

  const auto obs = SyntheticSample(240, 21);
  service::Args no_iid;
  no_iid.Set("require_iid", "0");
  const auto analysis = client.AnalyzeInline(obs, no_iid);
  ASSERT_TRUE(analysis.ok) << analysis.payload;
  EXPECT_TRUE(analysis.args.Has("pwcet"));

  const auto ack = client.Shutdown();
  EXPECT_TRUE(ack.ok);
  EXPECT_EQ(fleet.Wait(), 0);
  EXPECT_TRUE(fleet.shutdown_requested());
  // The listener's file goes with it.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

}  // namespace
}  // namespace spta
