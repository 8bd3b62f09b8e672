// spta_serve load generator: amortization, drain and fleet guarantees.
//
// Drives the sharded fleet (sharded_server.hpp) — synchronously through
// ServeScript, the same per-frame dispatch the event loop runs, and over
// real TCP — with scripted request streams and reports:
//
//   1. cold vs warm: an ANALYZE that runs the full MBPTA pipeline vs an
//      identical resubmission answered from the shard engine's result
//      cache (warm memo off), each the median
//      of interleaved rounds, both timed in the serving thread's CPU time
//      (ServeScript runs on the calling thread, so preemption by other
//      processes does not land on either leg). Acceptance: warm >= 10x
//      faster.
//   2. drain-on-shutdown: a burst of analyses followed by SHUTDOWN over
//      TCP must produce exactly one response per accepted request — zero
//      loss.
//   3. fleet A/B (BENCH_service_fleet.json):
//        * warm throughput: the loop's response memo vs the same fleet with
//          warm_memo_capacity = 0 (every repeat re-executes on its shard
//          and hits the engine's result cache), interleaved repetitions in
//          thread CPU time. Acceptance (armed at >= 150 requests): memo
//          >= 10x memo-off, bit-identical responses (analyze_us aside);
//        * TCP leg: the same warm stream through the real epoll loop;
//        * cold shard scaling: distinct analyses pipelined over TCP,
//          1 shard vs N shards (reported, not gated — machine-dependent);
//        * warm start: a fleet restarted over a persistent cache
//          directory must serve its first repeat as a disk-warmed hit.
//
// Analysis sample size is fixed at 3,000 (the paper's campaign size);
// SPTA_BENCH_RUNS scales the warm request streams, so smoke runs stay
// fast without making the cold pipeline trivially cheap.
//
// Exit code is nonzero when any armed acceptance criterion fails, so the
// bench doubles as a regression guard.
#include <time.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "common/hash.hpp"
#include "bench_util.hpp"
#include "mbpta/per_path.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "service/client.hpp"
#include "service/frame_reader.hpp"
#include "service/protocol.hpp"
#include "service/sharded_server.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace spta;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::vector<mbpta::PathObservation> SyntheticSample(std::size_t n,
                                                    std::uint64_t seed) {
  std::vector<mbpta::PathObservation> obs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t bits = Mix64(HashCombine(seed, i));
    obs[i].time =
        50000.0 + 2000.0 * (static_cast<double>(bits >> 11) * 0x1.0p-53);
  }
  return obs;
}

service::Request AnalyzeRequest(
    const std::vector<mbpta::PathObservation>& obs) {
  service::Request request;
  request.kind = service::RequestKind::kAnalyze;
  request.args.Set("require_iid", "0");
  request.payload = service::EncodeSamplePayload(obs);
  return request;
}

service::Request SessionAnalyzeRequest(const std::string& session) {
  service::Request request;
  request.kind = service::RequestKind::kAnalyze;
  request.args.Set("session", session);
  request.args.Set("require_iid", "0");
  return request;
}

service::Request ShutdownRequest() {
  service::Request request;
  request.kind = service::RequestKind::kShutdown;
  return request;
}

/// CPU time of the calling thread.
double ThreadCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string EncodeScript(const std::vector<service::Request>& script) {
  std::string wire;
  for (const auto& request : script) {
    service::AppendRequestFrame(request, &wire);
  }
  return wire;
}

std::vector<service::Response> DecodeResponses(const std::string& bytes) {
  service::FrameReassembler reassembler;
  reassembler.Feed(bytes);
  std::vector<service::Response> responses;
  service::Response response;
  std::string type;
  std::string body;
  std::string error;
  while (reassembler.Finish(&type, &body, &error) ==
             service::FrameReassembler::Result::kFrame &&
         service::BuildResponse(type, body, &response, &error)) {
    responses.push_back(response);
  }
  return responses;
}

/// Serves `wire` through ServeScript; returns (responses, thread CPU s).
std::pair<std::vector<service::Response>, double> Serve(
    service::ShardedServer& fleet, const std::string& wire) {
  std::string out;
  const double t0 = ThreadCpuSeconds();
  fleet.ServeScript(wire, &out);
  const double elapsed = ThreadCpuSeconds() - t0;
  return {DecodeResponses(out), elapsed};
}

std::pair<std::vector<service::Response>, double> Serve(
    service::ShardedServer& fleet,
    const std::vector<service::Request>& script) {
  return Serve(fleet, EncodeScript(script));
}

/// The wire frame with the volatile timing field stripped: the unit of
/// the bit-identity checksum.
std::string NormalizedFrame(service::Response response) {
  response.args.Erase("analyze_us");
  std::string frame;
  service::AppendResponseFrame(response, &frame);
  return frame;
}

/// The session-warming preamble every warm leg replays: OPEN + APPEND +
/// one cold ANALYZE (executes + populates cache/memo), all untimed.
std::vector<service::Request> WarmupScript(
    const std::vector<mbpta::PathObservation>& obs) {
  std::vector<service::Request> script;
  service::Request open;
  open.kind = service::RequestKind::kOpen;
  open.args.Set("session", "bench");
  script.push_back(open);
  service::Request append;
  append.kind = service::RequestKind::kAppend;
  append.args.Set("session", "bench");
  append.payload = service::EncodeSamplePayload(obs);
  script.push_back(append);
  script.push_back(SessionAnalyzeRequest("bench"));
  return script;
}

/// Pipelines `wire` over one TCP connection to a started fleet and reads
/// exactly `expected` responses back; returns (responses, seconds) where
/// the clock covers first write to last response.
std::pair<std::vector<service::Response>, double> RunTcp(
    service::ShardedServer& fleet, const std::string& wire,
    std::size_t expected) {
  std::string error;
  auto client = service::Client::ConnectTcp("127.0.0.1", fleet.bound_port(),
                                            &error, 60000.0);
  std::vector<service::Response> responses;
  if (!client) {
    std::printf("FAIL: fleet TCP connect: %s\n", error.c_str());
    return {responses, 0.0};
  }
  const auto t0 = Clock::now();
  client->WriteBytes(wire);
  service::Response response;
  while (responses.size() < expected && client->Receive(&response, &error)) {
    responses.push_back(response);
  }
  return {responses, Seconds(t0, Clock::now())};
}

}  // namespace

int main() {
  bench::Banner(
      "micro: spta_serve load generator",
      "infrastructure (no paper artifact): resident-service amortization",
      "identical re-analyses must be served from the result cache >= 10x "
      "faster than a cold EVT run, and graceful shutdown must answer every "
      "accepted request");

  // Analysis size is fixed (cold EVT work must stay real even in smoke
  // runs); the env knob scales the warm request streams instead.
  constexpr std::size_t kSampleSize = 3000;
  const std::size_t sample_size = kSampleSize;
  const std::size_t warm_runs = bench::RunCount(3000);
  const auto obs = SyntheticSample(sample_size, 1);
  bool failed = false;

  // --- 1. cold vs warm ----------------------------------------------------
  // The resident-service shape: samples are streamed into a session once,
  // then re-analyses reference the session by name.  Ingestion (OPEN +
  // APPEND) is untimed; each timed cold request runs the full MBPTA
  // pipeline and each timed warm burst is answered from the result cache.
  // One cold analysis takes under a millisecond, so the gate compares the
  // median of kRounds cold analyses (each on its own session with its own
  // sample, so each is a cache miss) against the median of kRounds warm
  // bursts, interleaved in this one process and timed in this thread's
  // CPU time. The warm memo is off, so every warm request goes through
  // the shard's engine and its result cache (the memo is gate 3's).
  constexpr std::size_t kRounds = 9;
  constexpr std::size_t kWarmBurst = 50;
  service::ShardedServerOptions fleet1_options;
  fleet1_options.warm_memo_capacity = 0;
  service::ShardedServer fleet1(fleet1_options);
  std::vector<double> cold_round_s;
  std::vector<double> warm_round_s;  // mean CPU seconds per warm request
  double warm_total_s = 0.0;
  std::size_t warm_hits = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    const std::string session = "bench" + std::to_string(round);
    service::Request open;
    open.kind = service::RequestKind::kOpen;
    open.args.Set("session", session);
    service::Request append;
    append.kind = service::RequestKind::kAppend;
    append.args.Set("session", session);
    append.payload = service::EncodeSamplePayload(
        round == 0 ? obs : SyntheticSample(sample_size, 100 + round));
    const auto [ingest_responses, ingest_s] = Serve(fleet1, {open, append});
    if (ingest_responses.size() != 2 || !ingest_responses[0].ok ||
        !ingest_responses[1].ok) {
      std::printf("FAIL: session ingestion failed\n");
      return 1;
    }
    const auto [cold_responses, cold_s] =
        Serve(fleet1, {SessionAnalyzeRequest(session)});
    if (cold_responses.size() != 1 || !cold_responses[0].ok ||
        cold_responses[0].args.GetString("cache") != "miss") {
      std::printf("FAIL: cold analysis did not complete as a cache miss\n");
      return 1;
    }
    cold_round_s.push_back(cold_s);

    const std::vector<service::Request> warm_script(
        kWarmBurst, SessionAnalyzeRequest(session));
    const auto [warm_responses, burst_s] = Serve(fleet1, warm_script);
    for (const auto& response : warm_responses) {
      warm_hits += response.ok && response.args.GetString("cache") == "hit";
    }
    warm_round_s.push_back(burst_s / static_cast<double>(kWarmBurst));
    warm_total_s += burst_s;
  }
  const double cold_s = bench::SummarizeLatencies(cold_round_s).p50;
  const double warm_s = bench::SummarizeLatencies(warm_round_s).p50;
  const double speedup = warm_s > 0.0 ? cold_s / warm_s : 0.0;
  std::printf("cold analysis    : %9.3f ms  (median of %zu, %zu samples, "
              "full MBPTA; thread CPU time)\n",
              cold_s * 1e3, kRounds, sample_size);
  std::printf("warm resubmission: %9.3f ms  (median of %zu bursts, %zu/%zu "
              "cache hits)\n",
              warm_s * 1e3, kRounds, warm_hits, kRounds * kWarmBurst);
  std::printf("speedup          : %9.1fx  (acceptance: >= 10x)  %s\n",
              speedup, speedup >= 10.0 ? "OK" : "FAIL");
  if (speedup < 10.0 || warm_hits != kRounds * kWarmBurst) failed = true;

  // --- 2. drain on shutdown ----------------------------------------------
  constexpr std::size_t kBurst = 200;
  std::vector<service::Request> burst;
  burst.reserve(kBurst + 1);
  for (std::size_t i = 0; i < kBurst; ++i) {
    // Distinct small samples: every request really reaches the engine.
    burst.push_back(AnalyzeRequest(SyntheticSample(200, 1000 + i)));
  }
  burst.push_back(ShutdownRequest());
  std::vector<service::Response> drain_responses;
  double drain_s = 0.0;
  service::ShardedServerOptions drain_options;
  drain_options.shards = 2;
  service::ShardedServer drain_fleet(drain_options);
  if (drain_fleet.ListenTcp("127.0.0.1", 0) == 0 && drain_fleet.Start() == 0) {
    std::tie(drain_responses, drain_s) =
        RunTcp(drain_fleet, EncodeScript(burst), kBurst + 1);
    drain_fleet.Wait();
  }

  std::size_t answered = 0;
  for (std::size_t i = 0; i + 1 < drain_responses.size(); ++i) {
    answered += drain_responses[i].ok;
  }
  const bool drained_ok =
      drain_responses.size() == kBurst + 1 && answered == kBurst &&
      drain_responses.back().ok &&
      drain_responses.back().args.GetString("drained") == "1";
  std::printf(
      "\ndrain-on-shutdown: %zu accepted, %zu answered, %zu lost in "
      "%.2fs  %s\n",
      kBurst, answered, kBurst - answered, drain_s,
      drained_ok ? "OK" : "FAIL");
  if (!drained_ok) failed = true;

  std::printf("\nfinal fleet metrics:\n%s",
              drain_fleet.FleetMetricsResponse().payload.c_str());

  // --- 3. fleet A/B -------------------------------------------------------
  const bool gate_armed = warm_runs >= 150;
  constexpr double kFleetGate = 10.0;  // memo warm >= 10x memo-off warm

  // One identical warm session-ANALYZE stream for every warm leg.
  const std::string warm_wire = EncodeScript(std::vector<service::Request>(
      warm_runs, SessionAnalyzeRequest("bench")));
  const std::string warmup_wire = EncodeScript(WarmupScript(obs));

  // Legs A and B: the same warm stream through a 1-shard fleet with the
  // response memo off (A, the shard re-executes and hits its result
  // cache) and on (B), interleaved repetitions in thread CPU time; each
  // leg reports its median rate.
  constexpr int kWarmReps = 5;
  std::vector<double> memo_off_rates;
  std::vector<double> memo_rates;
  std::string reference_frame;
  bool fleet_bits_match = true;
  for (int rep = 0; rep < kWarmReps; ++rep) {
    for (const bool memo : {false, true}) {
      service::ShardedServerOptions fleet_options;
      if (!memo) fleet_options.warm_memo_capacity = 0;
      service::ShardedServer fleet(fleet_options);
      const auto [setup, setup_s] = Serve(fleet, warmup_wire);
      if (setup.size() != 3 || !setup[2].ok) {
        std::printf("FAIL: fleet session warmup failed\n");
        failed = true;
      }
      const auto [responses, elapsed] = Serve(fleet, warm_wire);
      std::size_t hits = 0;
      for (const auto& response : responses) {
        hits += response.ok && response.args.GetString("cache") == "hit";
        if (reference_frame.empty()) {
          reference_frame = NormalizedFrame(response);
        }
        if (fleet_bits_match && NormalizedFrame(response) != reference_frame) {
          fleet_bits_match = false;
        }
      }
      if (hits != warm_runs || responses.size() != warm_runs) {
        std::printf("FAIL: %s warm leg: %zu responses, %zu hits\n",
                    memo ? "memo" : "memo-off", responses.size(), hits);
        failed = true;
      }
      (memo ? memo_rates : memo_off_rates)
          .push_back(elapsed > 0.0 ? static_cast<double>(warm_runs) / elapsed
                                   : 0.0);
    }
  }
  const double memo_off_warm_rps =
      bench::SummarizeLatencies(memo_off_rates).p50;
  const double fleet_warm_rps = bench::SummarizeLatencies(memo_rates).p50;
  const double fleet_warm_speedup =
      memo_off_warm_rps > 0.0 ? fleet_warm_rps / memo_off_warm_rps : 0.0;

  // Leg C: the same warm stream through the real epoll/TCP path.
  double tcp_warm_rps = 0.0;
  {
    service::ShardedServerOptions fleet_options;
    fleet_options.shards = 2;
    service::ShardedServer fleet(fleet_options);
    std::string out;
    fleet.ServeScript(warmup_wire, &out);
    if (fleet.ListenTcp("127.0.0.1", 0) == 0 && fleet.Start() == 0) {
      const auto [responses, elapsed] = RunTcp(fleet, warm_wire, warm_runs);
      std::size_t hits = 0;
      for (const auto& response : responses) {
        hits += response.ok && response.args.GetString("cache") == "hit";
        if (fleet_bits_match &&
            NormalizedFrame(response) != reference_frame) {
          fleet_bits_match = false;
        }
      }
      if (hits != warm_runs) {
        std::printf("FAIL: TCP warm leg: %zu/%zu hits\n", hits, warm_runs);
        failed = true;
      }
      tcp_warm_rps =
          elapsed > 0.0 ? static_cast<double>(warm_runs) / elapsed : 0.0;
      fleet.TriggerShutdown();
      fleet.Wait();
    } else {
      std::printf("FAIL: fleet TCP listen/start\n");
      failed = true;
    }
  }

  // Leg D: cold shard scaling — distinct analyses pipelined over TCP,
  // 1 shard vs N shards. Reported, not gated (machine-dependent).
  const std::size_t shards_n = 4;
  constexpr std::size_t kColdBurst = 32;
  std::string cold_wire;
  {
    std::vector<service::Request> cold_script;
    for (std::size_t i = 0; i < kColdBurst; ++i) {
      // Big enough that the EVT pipeline dominates the per-request cost
      // (tiny samples would just benchmark the event loop again).
      cold_script.push_back(AnalyzeRequest(SyntheticSample(2000, 5000 + i)));
    }
    cold_wire = EncodeScript(cold_script);
  }
  double cold_rps[2] = {0.0, 0.0};
  for (int leg = 0; leg < 2; ++leg) {
    service::ShardedServerOptions fleet_options;
    fleet_options.shards = leg == 0 ? 1 : shards_n;
    service::ShardedServer fleet(fleet_options);
    if (fleet.ListenTcp("127.0.0.1", 0) != 0 || fleet.Start() != 0) {
      std::printf("FAIL: cold-leg fleet start\n");
      failed = true;
      continue;
    }
    const auto [responses, elapsed] = RunTcp(fleet, cold_wire, kColdBurst);
    std::size_t ok_count = 0;
    for (const auto& response : responses) ok_count += response.ok;
    if (ok_count != kColdBurst) {
      std::printf("FAIL: cold leg %d: %zu/%zu ok\n", leg, ok_count,
                  kColdBurst);
      failed = true;
    }
    cold_rps[leg] =
        elapsed > 0.0 ? static_cast<double>(kColdBurst) / elapsed : 0.0;
    fleet.TriggerShutdown();
    fleet.Wait();
  }
  const double shard_scaling =
      cold_rps[0] > 0.0 ? cold_rps[1] / cold_rps[0] : 0.0;

  // Leg E: persistent warm start — a fresh fleet over the directory a
  // previous fleet populated must serve its first repeat from disk.
  double cold_start_ms = 0.0;
  double warm_start_ms = 0.0;
  bool warm_start_hit = false;
  {
    char scratch[] = "/tmp/spta_fleet_bench_XXXXXX";
    if (::mkdtemp(scratch) != nullptr) {
      const std::string inline_wire =
          EncodeScript({AnalyzeRequest(SyntheticSample(kSampleSize, 99))});
      std::string first_frame;
      {
        service::ShardedServerOptions fleet_options;
        fleet_options.cache_dir = scratch;
        service::ShardedServer fleet(fleet_options);
        std::string out;
        const auto t0 = Clock::now();
        fleet.ServeScript(inline_wire, &out);
        cold_start_ms = Seconds(t0, Clock::now()) * 1e3;
        const auto responses = DecodeResponses(out);
        if (!responses.empty()) first_frame = NormalizedFrame(responses[0]);
      }
      {
        service::ShardedServerOptions fleet_options;
        fleet_options.cache_dir = scratch;
        service::ShardedServer fleet(fleet_options);
        std::string out;
        const auto t0 = Clock::now();
        fleet.ServeScript(inline_wire, &out);
        warm_start_ms = Seconds(t0, Clock::now()) * 1e3;
        const auto responses = DecodeResponses(out);
        if (responses.size() == 1 && responses[0].ok) {
          service::Response warm = responses[0];
          const bool hit = warm.args.GetString("cache") == "hit";
          // Identical bytes modulo the hit/miss disposition + timing.
          warm.args.Set("cache", "miss");
          warm_start_hit = hit && NormalizedFrame(warm) == first_frame;
        }
      }
      const std::string cleanup = std::string("rm -rf '") + scratch + "'";
      [[maybe_unused]] const int rc = std::system(cleanup.c_str());
    } else {
      std::printf("FAIL: mkdtemp for warm-start leg\n");
      failed = true;
    }
  }
  // Leg G: distributed-tracing overhead A/B (BENCH_obs_trace.json) — the
  // same warm stream through a 1-shard fleet in three configurations:
  //   A  tracer disabled, untraced wire (the pre-tracing byte format);
  //   A2 tracer disabled, every frame carrying a trace= header token
  //      (isolates the parse cost of the optional token);
  //   B  tracer enabled, traced wire (full span recording + propagation).
  // Bytes must be identical across all three (the token and the spans may
  // never leak into a response). The warm memo path serves in under a
  // microsecond, so these legs are deliberate worst cases: ~100 ns of
  // token parse and ~400 ns of span recording are double-digit
  // percentages HERE and noise on any real analysis — the armed gates
  // (25% token / 75% enabled) are regression tripwires, not targets. The
  // documented <= 2% bar is enforced by the real-work legs below.
  double disabled_ns_per_req = 0.0;
  double disabled_traced_ns_per_req = 0.0;
  double enabled_ns_per_req = 0.0;
  std::uint64_t trace_events_recorded = 0;
  bool obs_trace_checksum = true;
  {
    std::string traced_wire;
    {
      service::Request traced = SessionAnalyzeRequest("bench");
      traced.trace = obs::MintTraceContext();
      traced.trace.span_id = obs::MintSpanId();
      for (std::size_t i = 0; i < warm_runs; ++i) {
        service::AppendRequestFrameWithTrace(traced, &traced_wire);
      }
    }
    // A leg's timed region is only a few ms, so one scheduler hiccup can
    // swing it by half; min-of-7 fresh-fleet repetitions reports the
    // undisturbed cost, which is the quantity the gate reasons about. The
    // reps are interleaved round-robin across the three legs (not run as
    // per-leg blocks) so CPU frequency drift over the bench's lifetime
    // hits every leg equally instead of skewing the A/B ratio.
    struct WarmLeg {
      const std::string* wire;
      bool enable_tracer;
      double best_ns = 0.0;
    };
    WarmLeg legs[3] = {{&warm_wire, false, 0.0},
                       {&traced_wire, false, 0.0},
                       {&traced_wire, true, 0.0}};
    const auto before = obs::Tracer::Instance().GetStats();
    for (int rep = 0; rep < 7; ++rep) {
      for (WarmLeg& leg : legs) {
        service::ShardedServerOptions fleet_options;
        fleet_options.shards = 1;
        service::ShardedServer fleet(fleet_options);
        std::string out;
        fleet.ServeScript(warmup_wire, &out);
        std::string leg_out;
        leg_out.reserve(warm_runs * 1024);
        if (leg.enable_tracer) obs::Tracer::Instance().Enable();
        const auto t0 = Clock::now();
        fleet.ServeScript(*leg.wire, &leg_out);
        const double ns =
            Seconds(t0, Clock::now()) / static_cast<double>(warm_runs) * 1e9;
        if (leg.enable_tracer) obs::Tracer::Instance().Disable();
        if (rep == 0 || ns < leg.best_ns) leg.best_ns = ns;
        const auto responses = DecodeResponses(leg_out);
        if (responses.size() != warm_runs) obs_trace_checksum = false;
        for (const auto& response : responses) {
          if (!response.ok ||
              NormalizedFrame(response) != reference_frame) {
            obs_trace_checksum = false;
            break;
          }
        }
      }
    }
    const auto after = obs::Tracer::Instance().GetStats();
    trace_events_recorded = after.recorded - before.recorded;
    disabled_ns_per_req = legs[0].best_ns;
    disabled_traced_ns_per_req = legs[1].best_ns;
    enabled_ns_per_req = legs[2].best_ns;
  }
  const double disabled_overhead_pct =
      disabled_ns_per_req > 0.0
          ? (disabled_traced_ns_per_req - disabled_ns_per_req) /
                disabled_ns_per_req * 100.0
          : 0.0;
  const double enabled_overhead_pct =
      disabled_ns_per_req > 0.0
          ? (enabled_ns_per_req - disabled_ns_per_req) / disabled_ns_per_req *
                100.0
          : 0.0;

  // Real-work legs: distinct cold inline analyses (the EVT pipeline
  // dominates), untraced-and-disabled vs traced-with-the-tracer-enabled.
  // This is the configuration the <= 2% acceptance bar talks about; the
  // armed gate sits at 5% to absorb scheduler noise on a ~10 ms leg.
  double analysis_disabled_ns_per_req = 0.0;
  double analysis_traced_ns_per_req = 0.0;
  {
    constexpr std::size_t kObsCold = 16;
    std::string untraced_wire;
    std::string traced_wire;
    for (std::size_t i = 0; i < kObsCold; ++i) {
      service::Request request = AnalyzeRequest(SyntheticSample(2000, 7000 + i));
      service::AppendRequestFrame(request, &untraced_wire);
      request.trace = obs::MintTraceContext();
      request.trace.span_id = obs::MintSpanId();
      service::AppendRequestFrameWithTrace(request, &traced_wire);
    }
    // Interleaved for the same frequency-drift reason as the warm legs.
    std::vector<std::string> reference_frames;
    struct ColdLeg {
      const std::string* wire;
      bool enable_tracer;
      double best_ns = 0.0;
    };
    ColdLeg legs[2] = {{&untraced_wire, false, 0.0},
                       {&traced_wire, true, 0.0}};
    for (int rep = 0; rep < 3; ++rep) {
      for (ColdLeg& leg : legs) {
        service::ShardedServerOptions fleet_options;
        fleet_options.shards = 1;
        service::ShardedServer fleet(fleet_options);
        std::string leg_out;
        if (leg.enable_tracer) obs::Tracer::Instance().Enable();
        const auto t0 = Clock::now();
        fleet.ServeScript(*leg.wire, &leg_out);
        const double ns =
            Seconds(t0, Clock::now()) / static_cast<double>(kObsCold) * 1e9;
        if (leg.enable_tracer) obs::Tracer::Instance().Disable();
        if (rep == 0 || ns < leg.best_ns) leg.best_ns = ns;
        const auto responses = DecodeResponses(leg_out);
        if (responses.size() != kObsCold) {
          obs_trace_checksum = false;
          continue;
        }
        for (std::size_t i = 0; i < responses.size(); ++i) {
          if (!responses[i].ok) obs_trace_checksum = false;
          std::string frame = NormalizedFrame(responses[i]);
          if (reference_frames.size() < kObsCold) {
            reference_frames.push_back(std::move(frame));
          } else if (frame != reference_frames[i]) {
            obs_trace_checksum = false;
          }
        }
      }
    }
    analysis_disabled_ns_per_req = legs[0].best_ns;
    analysis_traced_ns_per_req = legs[1].best_ns;
  }
  const double analysis_overhead_pct =
      analysis_disabled_ns_per_req > 0.0
          ? (analysis_traced_ns_per_req - analysis_disabled_ns_per_req) /
                analysis_disabled_ns_per_req * 100.0
          : 0.0;

  constexpr double kObsTokenGatePct = 25.0;
  constexpr double kObsEnabledGatePct = 75.0;
  constexpr double kObsAnalysisGatePct = 5.0;
  const bool obs_trace_pass =
      obs_trace_checksum && trace_events_recorded > 0 &&
      (!gate_armed || (disabled_overhead_pct <= kObsTokenGatePct &&
                       enabled_overhead_pct <= kObsEnabledGatePct &&
                       analysis_overhead_pct <= kObsAnalysisGatePct));
  if (!obs_trace_pass) {
    std::printf("FAIL: obs trace leg: checksum %s, %llu events, "
                "token %.1f%%, enabled %.1f%%, analysis %.1f%%\n",
                obs_trace_checksum ? "ok" : "MISMATCH",
                static_cast<unsigned long long>(trace_events_recorded),
                disabled_overhead_pct, enabled_overhead_pct,
                analysis_overhead_pct);
    failed = true;
  }

  if (!warm_start_hit) {
    std::printf("FAIL: restarted fleet did not serve a disk-warmed hit\n");
    failed = true;
  }
  if (!fleet_bits_match) {
    std::printf("FAIL: memo warm responses diverged from memo-off bytes\n");
    failed = true;
  }
  if (gate_armed && fleet_warm_speedup < kFleetGate) failed = true;

  std::printf("\nfleet A/B (%zu warm requests%s):\n", warm_runs,
              gate_armed ? "" : "; gate disarmed, < 150 runs");
  std::printf("memo-off warm    : %12.0f req/s  (thread CPU time)\n",
              memo_off_warm_rps);
  std::printf("memo warm        : %12.0f req/s  (%5.1fx, acceptance: >= "
              "%.0fx)  %s\n",
              fleet_warm_rps, fleet_warm_speedup, kFleetGate,
              !gate_armed              ? "n/a"
              : fleet_warm_speedup >= kFleetGate ? "OK"
                                                 : "FAIL");
  std::printf("fleet warm (TCP) : %12.0f req/s\n", tcp_warm_rps);
  std::printf("cold 1 shard     : %12.0f req/s\n", cold_rps[0]);
  std::printf("cold %zu shards    : %12.0f req/s  (%.2fx scaling)\n",
              shards_n, cold_rps[1], shard_scaling);
  std::printf("warm start       : cold %.3f ms -> restart %.3f ms (%s)\n",
              cold_start_ms, warm_start_ms,
              warm_start_hit ? "disk hit" : "MISS");
  std::printf("bit identity     : %s\n",
              fleet_bits_match ? "OK (memo-off == memo == TCP)" : "FAIL");
  std::printf(
      "trace overhead   : %9.0f ns/req untraced, %9.0f ns/req token "
      "(%+.1f%%), %9.0f ns/req enabled (%+.1f%%, %llu spans) on the warm "
      "fast path;\n"
      "                   %9.0f -> %9.0f ns/req (%+.2f%%, acceptance <= "
      "%.0f%%) on cold analyses  %s\n",
      disabled_ns_per_req, disabled_traced_ns_per_req, disabled_overhead_pct,
      enabled_ns_per_req, enabled_overhead_pct,
      static_cast<unsigned long long>(trace_events_recorded),
      analysis_disabled_ns_per_req, analysis_traced_ns_per_req,
      analysis_overhead_pct, kObsAnalysisGatePct,
      obs_trace_pass ? "OK" : "FAIL");

  bench::JsonReport fleet_report("service_fleet", warm_runs);
  fleet_report.Set("memo_off_warm_rps", memo_off_warm_rps);
  fleet_report.Set("fleet_warm_rps", fleet_warm_rps);
  fleet_report.Set("fleet_warm_speedup", fleet_warm_speedup);
  fleet_report.Set("tcp_warm_rps", tcp_warm_rps);
  fleet_report.Set("cold_rps_1shard", cold_rps[0]);
  fleet_report.Set("cold_rps_nshard", cold_rps[1]);
  fleet_report.Set("shard_scaling", shard_scaling);
  fleet_report.Set("shards_n", static_cast<double>(shards_n));
  fleet_report.Set("cold_start_ms", cold_start_ms);
  fleet_report.Set("warm_start_ms", warm_start_ms);
  fleet_report.Set("warm_start_hit", warm_start_hit ? 1.0 : 0.0);
  fleet_report.Set("checksum_match", fleet_bits_match ? 1.0 : 0.0);
  fleet_report.Set(
      "warm_frame_checksum",
      static_cast<double>(spta::HashBytes(reference_frame).lo >> 32));
  fleet_report.Set("gate_armed", gate_armed ? 1.0 : 0.0);
  fleet_report.Set("gate_min_speedup", kFleetGate);
  fleet_report.Set("acceptance_pass", failed ? 0.0 : 1.0);
  fleet_report.Write();

  bench::JsonReport obs_trace_report("obs_trace", warm_runs);
  obs_trace_report.Set("disabled_ns_per_req", disabled_ns_per_req);
  obs_trace_report.Set("disabled_traced_ns_per_req",
                       disabled_traced_ns_per_req);
  obs_trace_report.Set("enabled_ns_per_req", enabled_ns_per_req);
  obs_trace_report.Set("disabled_overhead_pct", disabled_overhead_pct);
  obs_trace_report.Set("enabled_overhead_pct", enabled_overhead_pct);
  obs_trace_report.Set("analysis_disabled_ns_per_req",
                       analysis_disabled_ns_per_req);
  obs_trace_report.Set("analysis_traced_ns_per_req",
                       analysis_traced_ns_per_req);
  obs_trace_report.Set("analysis_overhead_pct", analysis_overhead_pct);
  obs_trace_report.Set("trace_events_recorded",
                       static_cast<double>(trace_events_recorded));
  obs_trace_report.Set("checksum_match", obs_trace_checksum ? 1.0 : 0.0);
  obs_trace_report.Set("gate_armed", gate_armed ? 1.0 : 0.0);
  obs_trace_report.Set("gate_token_pct", kObsTokenGatePct);
  obs_trace_report.Set("gate_enabled_pct", kObsEnabledGatePct);
  obs_trace_report.Set("gate_analysis_pct", kObsAnalysisGatePct);
  obs_trace_report.Set("acceptance_pass", obs_trace_pass ? 1.0 : 0.0);
  obs_trace_report.Write();

  bench::JsonReport report("service_loadgen", sample_size);
  report.Set("cold_analyze_ms", cold_s * 1e3);
  report.Set("warm_analyze_ms", warm_s * 1e3);
  report.Set("warm_speedup", speedup);
  report.Set("warm_hits", static_cast<double>(warm_hits));
  report.Set("warm_requests_per_sec",
             warm_total_s > 0.0
                 ? static_cast<double>(kRounds * kWarmBurst) / warm_total_s
                 : 0.0);
  report.Set("drain_seconds", drain_s);
  report.Set("drain_answered", static_cast<double>(answered));
  report.Set("drain_burst", static_cast<double>(kBurst));
  report.Set("acceptance_pass", failed ? 0.0 : 1.0);
  report.Write();
  return failed ? 1 : 0;
}
