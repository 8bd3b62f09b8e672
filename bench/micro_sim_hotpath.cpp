// Per-access cost of the simulation fast path, isolated from analysis.
//
// Simulation throughput bounds how many measurement runs an MBPTA campaign
// can afford; this bench pins it down on the heaviest workload the repo has
// (one full TVCA frame, ~225k trace records) under the fully randomized
// LEON3 configuration, with per-run reseeding — the inner loop of a
// fixed-trace analysis::RunCampaign, timed run by run so the JSON report
// carries a latency distribution, not just a mean. Throughput is reported
// as context only: speed is judged by perfbench, which compares two
// revisions on one host. The checksum re-verifies bit-identity on the fly:
// any drift in observable behavior shows up here before it shows up in a
// pWCET figure. A last leg retires the same frame as a block-stream frame
// (the fresh-input campaign form) against the record frame, and both must
// reproduce the checksum.
#include <algorithm>
#include <chrono>
#include <ctime>
#include <cstdio>
#include <functional>
#include <vector>

#include "analysis/campaign.hpp"
#include "apps/tvca.hpp"
#include "bench_util.hpp"
#include "obs/trace.hpp"
#include "sim/platform.hpp"

namespace {

using Clock = std::chrono::steady_clock;

// Sum of end-to-end cycle counts over the first 60 runs of this campaign
// (master seed 123). Frozen from the pre-fast-path tree; bit-identity of
// the optimized simulator means it can never change.
constexpr unsigned long long kChecksum60 = 52746737ULL;

/// CPU time consumed by the calling thread, in seconds. The A/B gates
/// time their legs with it, not with the wall clock: time the thread
/// spends descheduled on a busy host is not a cost of the code under test.
double ThreadCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Overhead of leg B over leg A in one A/B pair, in percent.
double PairOverheadPct(double a_s, double b_s) {
  return a_s > 0.0 ? (b_s - a_s) / a_s * 100.0 : 0.0;
}

/// Median of `values` (copied; the mean of the middle two for even
/// sizes; empty input -> 0).
double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace

int main() {
  using namespace spta;
  bench::Banner(
      "micro: simulation hot path",
      "infrastructure (no paper artifact): per-access simulation cost",
      "fast-path kernel keeps bit-identical observable behavior "
      "(checksum(60)); disarmed fault and trace hooks cost <= 2%");

  const std::size_t runs = bench::RunCount(300);
  constexpr std::uint64_t kMasterSeed = 123;

  const apps::TvcaApp app;
  const auto frame = app.BuildFrame(/*scenario_seed=*/42);
  const auto& trace = frame.trace;
  std::printf("workload: TVCA frame(42), %zu records, path %u\n",
              trace.records.size(), frame.path_id);

  const auto config = sim::RandLeon3Config();
  sim::Platform platform(config, kMasterSeed);

  // Warmup outside the measured window (first-touch faults, frequency).
  for (std::size_t i = 0; i < 3; ++i) {
    (void)platform.Run(trace, analysis::FixedTraceRunSeed(kMasterSeed, i));
  }

  std::vector<double> latencies;
  latencies.reserve(runs);
  unsigned long long checksum = 0;
  std::uint64_t instructions = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < runs; ++i) {
    const auto r0 = Clock::now();
    const auto result =
        platform.Run(trace, analysis::FixedTraceRunSeed(kMasterSeed, i));
    const auto r1 = Clock::now();
    latencies.push_back(std::chrono::duration<double>(r1 - r0).count());
    if (i < 60) checksum += result.cycles;
    instructions += result.instructions;
  }
  const auto t1 = Clock::now();
  const double total_s = std::chrono::duration<double>(t1 - t0).count();

  const double runs_per_sec = static_cast<double>(runs) / total_s;
  const double minstr_per_sec =
      static_cast<double>(instructions) / total_s / 1e6;
  const auto lat = bench::SummarizeLatencies(latencies);

  std::printf("runs            : %zu  (%.2fs total)\n", runs, total_s);
  std::printf("throughput      : %8.2f runs/sec  %7.1f Minstr/sec\n",
              runs_per_sec, minstr_per_sec);
  std::printf("per-run latency : p50 %.3fms  p99 %.3fms  mean %.3fms\n",
              lat.p50 * 1e3, lat.p99 * 1e3, lat.mean * 1e3);

  bool failed = false;
  if (runs >= 60) {
    const bool ok = checksum == kChecksum60;
    std::printf("bit-identity    : checksum(60) %llu  %s\n", checksum,
                ok ? "OK" : "MISMATCH (expected 52746737)");
    failed = failed || !ok;
  } else {
    std::printf("bit-identity    : skipped (needs >= 60 runs, have %zu)\n",
                runs);
  }

  bench::JsonReport report("sim_hotpath", runs);
  report.Set("trace_records", static_cast<double>(trace.records.size()));
  report.Set("total_seconds", total_s);
  report.Set("runs_per_sec", runs_per_sec);
  report.Set("minstr_per_sec", minstr_per_sec);
  report.SetLatencies("run_latency", lat);
  report.Set("checksum_60", runs >= 60 ? static_cast<double>(checksum) : 0.0);
  if (report.Write().empty()) failed = true;

  // --- zero-fault-path overhead gate (docs/FAULTS.md) ------------------
  // The fault subsystem's injection window is Platform::RunWithHook; the
  // zero-fault contract is that a null hook costs nothing measurable over
  // plain Run. A/B-interleave the two entry points on identical seeds,
  // alternating which leg runs first and timing each leg in thread CPU
  // time: same results (bit-identity) and within-noise timing. The gated
  // figure is the median of the per-pair overheads, so one disturbed run
  // cannot decide the verdict, while a real per-run cost still shows in
  // every pair.
  // Acceptance is <= 2%; the gate only FAILS above 10% so shared-host
  // noise cannot flake tier-1 — the JSON records the actual number for
  // the perf trajectory either way.
  const std::size_t ab_pairs = runs < 20 ? runs : runs / 2;
  const std::function<void(sim::Platform&)> null_hook;  // empty = no-op
  double plain_s = 0.0, hooked_s = 0.0;
  unsigned long long plain_sum = 0, hooked_sum = 0;
  std::vector<double> fault_pair_pct;
  fault_pair_pct.reserve(ab_pairs);
  for (std::size_t i = 0; i < ab_pairs; ++i) {
    const auto seed = analysis::FixedTraceRunSeed(kMasterSeed, i);
    const auto timed_plain = [&] {
      const double t0 = ThreadCpuSeconds();
      plain_sum += platform.Run(trace, seed).cycles;
      return ThreadCpuSeconds() - t0;
    };
    const auto timed_hooked = [&] {
      const double t0 = ThreadCpuSeconds();
      hooked_sum += platform.RunWithHook(trace, seed, null_hook).cycles;
      return ThreadCpuSeconds() - t0;
    };
    double a = 0.0, b = 0.0;
    if (i % 2 == 0) {
      a = timed_plain();
      b = timed_hooked();
    } else {
      b = timed_hooked();
      a = timed_plain();
    }
    plain_s += a;
    hooked_s += b;
    fault_pair_pct.push_back(PairOverheadPct(a, b));
  }
  const double overhead_pct = MedianOf(fault_pair_pct);
  const bool bits_match = plain_sum == hooked_sum;
  std::printf(
      "\nfault-hook overhead (%zu A/B pairs): plain %.2f runs/sec, "
      "null-hook %.2f runs/sec -> median pair %+.2f%%\n",
      ab_pairs, static_cast<double>(ab_pairs) / plain_s,
      static_cast<double>(ab_pairs) / hooked_s, overhead_pct);
  std::printf("  acceptance <= 2%% (gate trips only above 10%%); "
              "bit-identity %s\n",
              bits_match ? "OK" : "MISMATCH");
  failed = failed || !bits_match || overhead_pct > 10.0;

  bench::JsonReport fault_report("fault_overhead", ab_pairs);
  fault_report.Set("plain_runs_per_sec",
                   static_cast<double>(ab_pairs) / plain_s);
  fault_report.Set("hooked_runs_per_sec",
                   static_cast<double>(ab_pairs) / hooked_s);
  fault_report.Set("overhead_pct", overhead_pct);
  fault_report.Set("acceptance_pct", 2.0);
  fault_report.Set("gate_pct", 10.0);
  fault_report.Set("checksum_match", bits_match ? 1.0 : 0.0);
  if (fault_report.Write().empty()) failed = true;

  // --- obs span overhead gate (docs/OBSERVABILITY.md) ------------------
  // The observability contract is that the trace-span macros cost the
  // measurement loop nothing when runtime-disabled (a relaxed load + a
  // predicted branch per span) and never perturb simulated behavior in
  // either state. A/B-interleave a bare run against a span-wrapped run on
  // identical seeds with the tracer disabled: same cycles (bit-identity)
  // and within-noise timing, with the fault gate's timing and median
  // rule and its 2%/10% acceptance/gate split. A third, informational
  // leg re-times the span-wrapped run with the tracer ENABLED — recording
  // cost, not gated (campaigns opt into it with --trace-out), but
  // recorded for the trajectory.
  obs::Tracer::Instance().Disable();
  double bare_s = 0.0, span_s = 0.0;
  unsigned long long bare_sum = 0, span_sum = 0;
  std::vector<double> obs_pair_pct;
  obs_pair_pct.reserve(ab_pairs);
  for (std::size_t i = 0; i < ab_pairs; ++i) {
    const auto seed = analysis::FixedTraceRunSeed(kMasterSeed, i);
    const auto timed_bare = [&] {
      const double t0 = ThreadCpuSeconds();
      bare_sum += platform.Run(trace, seed).cycles;
      return ThreadCpuSeconds() - t0;
    };
    const auto timed_span = [&] {
      const double t0 = ThreadCpuSeconds();
      {
        SPTA_OBS_SPAN_ARG("bench", "run", "run", i);
        span_sum += platform.Run(trace, seed).cycles;
      }
      return ThreadCpuSeconds() - t0;
    };
    double a = 0.0, b = 0.0;
    if (i % 2 == 0) {
      a = timed_bare();
      b = timed_span();
    } else {
      b = timed_span();
      a = timed_bare();
    }
    bare_s += a;
    span_s += b;
    obs_pair_pct.push_back(PairOverheadPct(a, b));
  }
  const double obs_overhead_pct = MedianOf(obs_pair_pct);
  const bool obs_bits_match = bare_sum == span_sum;

  obs::Tracer::Instance().Enable();
  double enabled_s = 0.0;
  unsigned long long enabled_sum = 0;
  for (std::size_t i = 0; i < ab_pairs; ++i) {
    const auto seed = analysis::FixedTraceRunSeed(kMasterSeed, i);
    const double e0 = ThreadCpuSeconds();
    {
      SPTA_OBS_SPAN_ARG("bench", "run_traced", "run", i);
      enabled_sum += platform.Run(trace, seed).cycles;
    }
    enabled_s += ThreadCpuSeconds() - e0;
  }
  const auto tracer_stats = obs::Tracer::Instance().GetStats();
  obs::Tracer::Instance().Disable();
  obs::Tracer::Instance().Clear();
  const double enabled_overhead_pct =
      bare_s > 0.0 ? (enabled_s - bare_s) / bare_s * 100.0 : 0.0;
  const bool enabled_bits_match = bare_sum == enabled_sum;

  std::printf(
      "\nobs span overhead (%zu A/B pairs): bare %.2f runs/sec, "
      "disabled-span %.2f runs/sec -> median pair %+.2f%%\n",
      ab_pairs, static_cast<double>(ab_pairs) / bare_s,
      static_cast<double>(ab_pairs) / span_s, obs_overhead_pct);
  std::printf("  enabled-span    : %.2f runs/sec -> %+.2f%% "
              "(informational; %llu events recorded)\n",
              static_cast<double>(ab_pairs) / enabled_s,
              enabled_overhead_pct,
              static_cast<unsigned long long>(tracer_stats.recorded));
  std::printf("  acceptance <= 2%% (gate trips only above 10%%); "
              "bit-identity %s\n",
              obs_bits_match && enabled_bits_match ? "OK" : "MISMATCH");
  failed = failed || !obs_bits_match || !enabled_bits_match ||
           obs_overhead_pct > 10.0;

  bench::JsonReport obs_report("obs_overhead", ab_pairs);
  obs_report.Set("plain_runs_per_sec", static_cast<double>(ab_pairs) / bare_s);
  obs_report.Set("obs_runs_per_sec", static_cast<double>(ab_pairs) / span_s);
  obs_report.Set("overhead_pct", obs_overhead_pct);
  obs_report.Set("enabled_runs_per_sec",
                 static_cast<double>(ab_pairs) / enabled_s);
  obs_report.Set("enabled_overhead_pct", enabled_overhead_pct);
  obs_report.Set("trace_events_recorded",
                 static_cast<double>(tracer_stats.recorded));
  obs_report.Set("acceptance_pct", 2.0);
  obs_report.Set("gate_pct", 10.0);
  obs_report.Set("checksum_match",
                 obs_bits_match && enabled_bits_match ? 1.0 : 0.0);
  if (obs_report.Write().empty()) failed = true;

  // --- block-frame leg -------------------------------------------------
  // The same frame as a block stream (TvcaApp::BuildFrame into a scratch:
  // dispatcher record spans plus the jobs' block streams) retired by the
  // block loop, A/B-interleaved against the record leg on the same seeds
  // with the gates' thread-CPU-time median rule. Both legs must reproduce
  // the frozen checksum; the block/record time ratio is informational.
  apps::FrameScratch scratch;
  const apps::FrameSpans& blocks = app.BuildFrame(/*scenario_seed=*/42, scratch);
  const std::function<void(sim::Platform&)> no_hook;
  double record_leg_s = 0.0, block_leg_s = 0.0;
  unsigned long long record_sum = 0, block_sum = 0;
  std::vector<double> block_pair_pct;
  block_pair_pct.reserve(ab_pairs);
  for (std::size_t i = 0; i < std::max<std::size_t>(ab_pairs, 60); ++i) {
    const auto seed = analysis::FixedTraceRunSeed(kMasterSeed, i);
    const auto timed_record = [&] {
      const double t0 = ThreadCpuSeconds();
      const Cycles cycles = platform.Run(trace, seed).cycles;
      if (i < 60) record_sum += cycles;
      return ThreadCpuSeconds() - t0;
    };
    const auto timed_block = [&] {
      const double t0 = ThreadCpuSeconds();
      const Cycles cycles =
          platform.RunWithHook(blocks.segments, seed, no_hook).cycles;
      if (i < 60) block_sum += cycles;
      return ThreadCpuSeconds() - t0;
    };
    double a = 0.0, b = 0.0;
    if (i % 2 == 0) {
      a = timed_record();
      b = timed_block();
    } else {
      b = timed_block();
      a = timed_record();
    }
    record_leg_s += a;
    block_leg_s += b;
    block_pair_pct.push_back(PairOverheadPct(a, b));
  }
  const double block_ratio = 1.0 + MedianOf(block_pair_pct) / 100.0;
  const bool block_bits_match =
      record_sum == kChecksum60 && block_sum == kChecksum60;
  std::printf(
      "\nblock-frame leg (%zu A/B pairs): record %.2f runs/sec, "
      "block %.2f runs/sec -> median pair block/record time %.3f\n",
      block_pair_pct.size(),
      static_cast<double>(block_pair_pct.size()) / record_leg_s,
      static_cast<double>(block_pair_pct.size()) / block_leg_s, block_ratio);
  std::printf("  checksum(60) record %llu, block %llu: %s\n", record_sum,
              block_sum, block_bits_match ? "OK" : "MISMATCH (expected 52746737)");
  failed = failed || !block_bits_match;

  bench::JsonReport block_report("block_frame", block_pair_pct.size());
  block_report.Set("record_runs_per_sec",
                   static_cast<double>(block_pair_pct.size()) / record_leg_s);
  block_report.Set("block_runs_per_sec",
                   static_cast<double>(block_pair_pct.size()) / block_leg_s);
  block_report.Set("block_over_record_time", block_ratio);
  block_report.Set("checksum_match", block_bits_match ? 1.0 : 0.0);
  if (block_report.Write().empty()) failed = true;

  return failed ? 1 : 0;
}
