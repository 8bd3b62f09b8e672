// Tests for the workload layer: kernels compute correct results, the frame
// composer and schedulers behave, and the TVCA model is deterministic with
// meaningful paths.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "apps/kernels.hpp"
#include "apps/rta.hpp"
#include "apps/scheduler.hpp"
#include "apps/tvca.hpp"
#include "common/hash.hpp"
#include "trace/interpreter.hpp"
#include "trace/synthetic.hpp"

namespace spta::apps {
namespace {

TEST(KernelsTest, MatMulComputesProduct) {
  const int n = 4;
  const trace::Program p = MakeMatMulProgram(n);
  trace::Interpreter interp(p);
  std::vector<double> a(n * n);
  std::vector<double> b(n * n);
  for (int i = 0; i < n * n; ++i) {
    a[i] = 0.5 + i;
    b[i] = 1.0 - 0.1 * i;
    interp.WriteFp(0, static_cast<std::size_t>(i), a[i]);
    interp.WriteFp(1, static_cast<std::size_t>(i), b[i]);
  }
  interp.Run();
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      double want = 0.0;
      for (int k = 0; k < n; ++k) want += a[i * n + k] * b[k * n + j];
      EXPECT_NEAR(interp.ReadFp(2, static_cast<std::size_t>(i * n + j)),
                  want, 1e-9);
    }
  }
}

TEST(KernelsTest, FirComputesConvolution) {
  const int taps = 3;
  const int samples = 5;
  const trace::Program p = MakeFirProgram(taps, samples);
  trace::Interpreter interp(p);
  const std::vector<double> coef = {0.5, 0.3, 0.2};
  for (int k = 0; k < taps; ++k) {
    interp.WriteFp(0, static_cast<std::size_t>(k), coef[k]);
  }
  std::vector<double> in(samples + taps);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = 1.0 + 0.5 * static_cast<double>(i);
    interp.WriteFp(1, i, in[i]);
  }
  interp.Run();
  for (int i = 0; i < samples; ++i) {
    double want = 0.0;
    for (int k = 0; k < taps; ++k) want += coef[k] * in[i + k];
    EXPECT_NEAR(interp.ReadFp(2, static_cast<std::size_t>(i)), want, 1e-12);
  }
}

TEST(KernelsTest, CrcMatchesReferenceImplementation) {
  const int words = 64;
  const trace::Program p = MakeCrcProgram(words);
  trace::Interpreter interp(p);
  std::vector<std::int32_t> table(256);
  std::vector<std::int32_t> msg(words);
  for (int i = 0; i < 256; ++i) {
    table[i] = (i * 2654435761) & 0x7fffffff;
    interp.WriteInt(0, static_cast<std::size_t>(i), table[i]);
  }
  for (int i = 0; i < words; ++i) {
    msg[i] = (i * 31 + 7) & 0xffff;
    interp.WriteInt(1, static_cast<std::size_t>(i), msg[i]);
  }
  interp.Run();
  // Reference in plain C++.
  std::int64_t crc = 0x1d0f;
  for (int i = 0; i < words; ++i) {
    const std::int64_t x = crc ^ msg[i];
    crc = (static_cast<std::uint64_t>(crc) >> 8) ^ table[x & 0xff];
  }
  EXPECT_EQ(interp.int_reg(20), crc);
}

TEST(KernelsTest, AttitudeKeepsQuaternionNormalized) {
  const int steps = 16;
  const trace::Program p = MakeAttitudeProgram(steps);
  trace::Interpreter interp(p);
  interp.WriteFp(0, 0, 1.0);  // unit quaternion
  for (int s = 0; s < 3 * steps; ++s) {
    interp.WriteFp(1, static_cast<std::size_t>(s),
                   0.1 * ((s % 5) - 2));
  }
  interp.Run();
  double norm = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    const double q = interp.ReadFp(0, i);
    norm += q * q;
  }
  EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-9);
}

TEST(KernelsTest, AttitudeTakesCorrectionPathOnLargeRates) {
  const int steps = 4;
  const trace::Program p = MakeAttitudeProgram(steps);
  trace::Interpreter small_rates(p);
  trace::Interpreter large_rates(p);
  small_rates.WriteFp(0, 0, 1.0);
  large_rates.WriteFp(0, 0, 1.0);
  for (int s = 0; s < 3 * steps; ++s) {
    small_rates.WriteFp(1, static_cast<std::size_t>(s), 0.01);
    large_rates.WriteFp(1, static_cast<std::size_t>(s), 2.0);
  }
  const auto t_small = small_rates.Run();
  const auto t_large = large_rates.Run();
  EXPECT_NE(t_small.path_signature, t_large.path_signature);
  EXPECT_GT(t_large.instruction_count(), t_small.instruction_count());
}

TEST(FrameComposerTest, PriorityAndMinorOrdering) {
  trace::Trace hi = trace::SequentialTrace(0x1000, 2, 4);
  hi.path_signature = 100;
  trace::Trace lo = trace::SequentialTrace(0x2000, 2, 4);
  lo.path_signature = 200;
  FrameComposer composer;
  // Low priority in minor 0 listed FIRST, but high priority must still run
  // first within the minor frame.
  const std::vector<FrameSlot> slots = {
      {&lo, 1, /*priority=*/5, /*minor=*/0},
      {&hi, 1, /*priority=*/1, /*minor=*/0},
      {&hi, 1, 1, 1},
  };
  const trace::Trace frame = composer.ComposeMajorFrame(slots);
  // Find the first task record after the dispatcher block.
  FrameComposer::Options defaults;
  const std::size_t overhead = defaults.dispatch_overhead_instructions;
  EXPECT_EQ(frame.records[overhead].mem_addr, 0x1000u);  // hi first
  EXPECT_EQ(frame.records.size(), 3 * overhead + 6);
}

TEST(FrameComposerTest, SignatureCombinesJobSignatures) {
  trace::Trace a = trace::SequentialTrace(0x1000, 1, 4);
  a.path_signature = 1;
  trace::Trace b = trace::SequentialTrace(0x1000, 1, 4);
  b.path_signature = 2;
  FrameComposer composer;
  const auto fa = composer.ComposeMajorFrame({{&a, 1, 1, 0}});
  const auto fb = composer.ComposeMajorFrame({{&b, 1, 1, 0}});
  EXPECT_NE(fa.path_signature, fb.path_signature);
}

TEST(FrameComposerTest, DispatcherTouchesKernelRegion) {
  trace::Trace t = trace::SequentialTrace(0x1000, 1, 4);
  FrameComposer::Options opts;
  opts.dispatch_overhead_instructions = 32;
  FrameComposer composer(opts);
  const auto frame = composer.ComposeMajorFrame({{&t, 1, 1, 0}});
  bool kernel_pc = false;
  for (const auto& r : frame.records) {
    kernel_pc |= r.pc >= opts.kernel_code_base &&
                 r.pc < opts.kernel_code_base + 0x10000;
  }
  EXPECT_TRUE(kernel_pc);
}

TEST(SchedulerTest, HyperperiodLcm) {
  EXPECT_EQ(Hyperperiod({{"a", 10, 10, 1}, {"b", 15, 15, 2}}), 30u);
  EXPECT_EQ(Hyperperiod({{"a", 250000, 250000, 1}, {"b", 500000, 500000, 2}}),
            500000u);
}

TEST(SchedulerTest, UtilizationSum) {
  const std::vector<PeriodicTaskSpec> tasks = {{"a", 10, 10, 1},
                                               {"b", 20, 20, 2}};
  EXPECT_DOUBLE_EQ(Utilization(tasks, {2, 5}), 0.45);
}

TEST(SchedulerTest, SimulationMeetsDeadlinesUnderLowLoad) {
  const std::vector<PeriodicTaskSpec> tasks = {
      {"hi", 100, 100, 1}, {"mid", 200, 200, 2}, {"lo", 400, 400, 3}};
  const std::vector<Cycles> wcet = {10, 20, 40};
  const auto res = SimulateFixedPriority(tasks, wcet, 4000);
  for (const auto& r : res) {
    EXPECT_EQ(r.deadline_misses, 0u) << r.name;
    EXPECT_GT(r.jobs_released, 0u);
  }
  // Highest priority task never waits.
  EXPECT_EQ(res[0].worst_response, 10u);
}

TEST(SchedulerTest, OverloadMissesDeadlines) {
  const std::vector<PeriodicTaskSpec> tasks = {{"hi", 100, 100, 1},
                                               {"lo", 100, 100, 2}};
  const std::vector<Cycles> wcet = {80, 50};  // U = 1.3
  const auto res = SimulateFixedPriority(tasks, wcet, 10000);
  EXPECT_EQ(res[0].deadline_misses, 0u);
  EXPECT_GT(res[1].deadline_misses, 0u);
}

TEST(SchedulerTest, PreemptionDelaysLowPriority) {
  const std::vector<PeriodicTaskSpec> tasks = {{"hi", 50, 50, 1},
                                               {"lo", 200, 200, 2}};
  const std::vector<Cycles> wcet = {20, 60};
  const auto res = SimulateFixedPriority(tasks, wcet, 2000);
  // lo: 60 own + preemption by hi: R = 60 + ceil(R/50)*20, fixed point 100.
  EXPECT_EQ(res[1].worst_response, 100u);
}

TEST(RtaTest, MatchesSimulationWorstResponse) {
  const std::vector<PeriodicTaskSpec> tasks = {
      {"hi", 100, 100, 1}, {"mid", 150, 150, 2}, {"lo", 350, 350, 3}};
  const std::vector<Cycles> wcet = {12, 30, 70};
  const auto rta = ResponseTimeAnalysis(tasks, wcet);
  const auto sim =
      SimulateFixedPriority(tasks, wcet, 10 * Hyperperiod(tasks));
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_TRUE(rta[i].schedulable) << tasks[i].name;
    // RTA is exact for synchronous releases: equals the simulated worst.
    EXPECT_EQ(rta[i].response_time, sim[i].worst_response) << tasks[i].name;
  }
}

TEST(RtaTest, DetectsUnschedulableTask) {
  const std::vector<PeriodicTaskSpec> tasks = {{"hi", 100, 100, 1},
                                               {"lo", 200, 120, 2}};
  const std::vector<Cycles> wcet = {60, 70};
  const auto rta = ResponseTimeAnalysis(tasks, wcet);
  EXPECT_TRUE(rta[0].schedulable);
  EXPECT_FALSE(rta[1].schedulable);
}

TEST(TvcaTest, FrameDeterministicPerSeed) {
  const TvcaApp app;
  const TvcaFrame a = app.BuildFrame(42);
  const TvcaFrame b = app.BuildFrame(42);
  ASSERT_EQ(a.trace.records.size(), b.trace.records.size());
  EXPECT_EQ(a.path_id, b.path_id);
  for (std::size_t i = 0; i < a.trace.records.size(); i += 997) {
    EXPECT_EQ(a.trace.records[i].pc, b.trace.records[i].pc);
    EXPECT_EQ(a.trace.records[i].mem_addr, b.trace.records[i].mem_addr);
  }
}

TEST(TvcaTest, ScenarioControlsPathId) {
  TvcaScenario s;
  EXPECT_EQ(s.PathId(), 0u);
  s.calibration = true;
  EXPECT_EQ(s.PathId(), 1u);
  s.maneuver_x = true;
  EXPECT_EQ(s.PathId(), 3u);
  s.maneuver_y = true;
  EXPECT_EQ(s.PathId(), 7u);
}

TEST(TvcaTest, AllEightPathsReachableAcrossSeeds) {
  const TvcaApp app;
  std::set<std::uint32_t> paths;
  for (std::uint64_t seed = 0; seed < 300 && paths.size() < 8; ++seed) {
    paths.insert(app.DrawScenario(seed).PathId());
  }
  EXPECT_EQ(paths.size(), 8u);
}

TEST(TvcaTest, ManeuverModeLengthensActuatorTrace) {
  const TvcaApp app;
  TvcaScenario calm;
  TvcaScenario maneuver;
  maneuver.maneuver_x = true;
  const auto t_calm = app.BuildTaskTrace(TvcaTask::kActuatorX, 1, calm);
  const auto t_man = app.BuildTaskTrace(TvcaTask::kActuatorX, 1, maneuver);
  EXPECT_GT(t_man.instruction_count(), t_calm.instruction_count());
}

TEST(TvcaTest, CalibrationLengthensSensorTrace) {
  const TvcaApp app;
  TvcaScenario normal;
  TvcaScenario calib;
  calib.calibration = true;
  const auto t_norm = app.BuildTaskTrace(TvcaTask::kSensorAcq, 1, normal);
  const auto t_cal = app.BuildTaskTrace(TvcaTask::kSensorAcq, 1, calib);
  EXPECT_GT(t_cal.instruction_count(), t_norm.instruction_count());
}

TEST(TvcaTest, TasksOccupyDisjointAddressRegions) {
  const TvcaApp app;
  const auto& sensor = app.program(TvcaTask::kSensorAcq);
  const auto& ax = app.program(TvcaTask::kActuatorX);
  const auto& ay = app.program(TvcaTask::kActuatorY);
  auto data_range = [](const trace::Program& p) {
    Address lo = ~Address{0};
    Address hi = 0;
    for (const auto& arr : p.arrays) {
      lo = std::min(lo, arr.base);
      hi = std::max(hi, arr.base + arr.byte_size());
    }
    return std::pair{lo, hi};
  };
  const auto [slo, shi] = data_range(sensor);
  const auto [xlo, xhi] = data_range(ax);
  const auto [ylo, yhi] = data_range(ay);
  EXPECT_LE(shi, xlo);
  EXPECT_LE(xhi, ylo);
  (void)slo;
  (void)yhi;
}

TEST(TvcaTest, FrameContainsAllFiveJobs) {
  const TvcaApp app;
  const TvcaFrame frame = app.BuildFrame(9);
  // Sensor code base 0x40000000, actuator-x 0x40010000, y 0x40020000.
  bool sensor = false;
  bool ax = false;
  bool ay = false;
  for (const auto& r : frame.trace.records) {
    sensor |= r.pc >= 0x40000000 && r.pc < 0x40010000;
    ax |= r.pc >= 0x40010000 && r.pc < 0x40020000;
    ay |= r.pc >= 0x40020000 && r.pc < 0x40030000;
  }
  EXPECT_TRUE(sensor);
  EXPECT_TRUE(ax);
  EXPECT_TRUE(ay);
}

TEST(TvcaTest, TaskSpecsAreRateMonotonic) {
  const TvcaApp app;
  const auto specs = app.TaskSpecs();
  ASSERT_EQ(specs.size(), 3u);
  for (std::size_t i = 1; i < specs.size(); ++i) {
    EXPECT_LE(specs[i - 1].period, specs[i].period);
    EXPECT_LT(specs[i - 1].priority, specs[i].priority);
  }
}

TEST(TvcaTest, TaskNames) {
  EXPECT_STREQ(ToString(TvcaTask::kSensorAcq), "sensor-acq");
  EXPECT_STREQ(ToString(TvcaTask::kActuatorX), "actuator-x");
  EXPECT_STREQ(ToString(TvcaTask::kActuatorY), "actuator-y");
}

// --- FrameScratch: span frames are the by-value frames --------------------

/// The first scenario seed of each of the eight paths.
std::array<std::uint64_t, 8> FirstSeedPerPath(const TvcaApp& app) {
  std::array<std::uint64_t, 8> seeds{};
  std::array<bool, 8> found{};
  std::size_t missing = 8;
  for (std::uint64_t seed = 0; missing > 0; ++seed) {
    const std::uint32_t path = app.DrawScenario(seed).PathId();
    if (!found[path]) {
      found[path] = true;
      seeds[path] = seed;
      --missing;
    }
  }
  return seeds;
}

/// The five jobs' block buffers (block ids and the three dynamic
/// columns), the dispatcher blocks and the segment list.
std::array<const void*, 22> BufferAddresses(const FrameScratch& scratch) {
  std::array<const void*, 22> out{};
  for (std::size_t j = 0; j < scratch.jobs.size(); ++j) {
    const trace::BlockTrace& job = scratch.jobs[j];
    out[4 * j] = job.blocks.data();
    out[4 * j + 1] = job.mem_addrs.data();
    out[4 * j + 2] = job.taken.data();
    out[4 * j + 3] = job.fpu_classes.data();
  }
  out[20] = scratch.dispatch.data();
  out[21] = scratch.frame.segments.data();
  return out;
}

TEST(FrameScratchTest, ReusedScratchBuildsTheByValueFrames) {
  const TvcaApp app;
  const auto by_path = FirstSeedPerPath(app);
  // Path 7 (every mode on) is the longest frame, path 0 the shortest: the
  // scratch shrinks and regrows across the sequence and visits all eight.
  const std::uint64_t seeds[] = {by_path[7], by_path[0], by_path[3],
                                 by_path[4], by_path[1], by_path[6],
                                 by_path[2], by_path[5], by_path[7]};
  const std::size_t n = app.config().dispatch_overhead;
  FrameScratch scratch;
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE(seed);
    const TvcaFrame fresh = app.BuildFrame(seed);
    const FrameSpans& reused = app.BuildFrame(seed, scratch);
    EXPECT_EQ(&reused, &scratch.frame);
    EXPECT_EQ(reused.path_id, fresh.path_id);
    EXPECT_EQ(fresh.trace.path_signature, fresh.path_id);
    std::vector<trace::TraceRecord> flat;
    trace::Flatten(reused.segments, flat);
    ASSERT_EQ(flat.size(), fresh.trace.records.size());
    EXPECT_TRUE(flat == fresh.trace.records);

    // Dispatcher block k, then job k: sensor, X1, Y1, X2, Y2. Every
    // segment points into the scratch; nothing is a copy.
    const std::size_t job_order[] = {0, 1, 3, 2, 4};
    ASSERT_EQ(reused.segments.size(), 10u);
    for (std::size_t k = 0; k < 5; ++k) {
      const trace::Segment& dispatch = reused.segments[2 * k];
      EXPECT_EQ(dispatch.blocks, nullptr);
      EXPECT_EQ(dispatch.records.data(), scratch.dispatch.data() + k * n);
      EXPECT_EQ(dispatch.records.size(), n);
      const trace::Segment& job = reused.segments[2 * k + 1];
      EXPECT_EQ(job.blocks, &scratch.jobs[job_order[k]]);
      EXPECT_TRUE(job.records.empty());
    }
  }
}

TEST(FrameScratchTest, InterpreterRunIntoUsedTraceMatchesFreshTrace) {
  const TvcaApp app;
  const trace::Program& p = app.program(TvcaTask::kActuatorX);
  trace::Interpreter fresh(p);
  const trace::Trace expected = fresh.Run();
  // A longer, different trace left in the buffer must not leak through.
  trace::Trace used = app.BuildTaskTrace(TvcaTask::kSensorAcq, 5);
  ASSERT_GT(used.records.size(), expected.records.size());
  trace::Interpreter again(p);
  again.Run(used);
  EXPECT_EQ(used.path_signature, expected.path_signature);
  ASSERT_EQ(used.records.size(), expected.records.size());
  EXPECT_TRUE(used.records == expected.records);
}

// Each task's jobs share one interpreter ArrayStore per scratch, and the
// next job on it starts from zeroed arrays: after a frame, whose jobs
// wrote their inputs and state into the stores, an interpreter bound to a
// task's store reads 0 in every element of every array.
TEST(FrameScratchTest, NextJobOnTheScratchSeesZeroedArrays) {
  const TvcaApp app;
  FrameScratch scratch;
  app.BuildFrame(FirstSeedPerPath(app)[7], scratch);
  for (const TvcaTask task : {TvcaTask::kSensorAcq, TvcaTask::kActuatorX,
                              TvcaTask::kActuatorY}) {
    SCOPED_TRACE(ToString(task));
    const trace::Program& program = app.program(task);
    const trace::DecodedProgram decoded(program);
    trace::Interpreter next(decoded,
                            scratch.arrays[static_cast<std::size_t>(task)]);
    for (std::size_t a = 0; a < program.arrays.size(); ++a) {
      const auto id = static_cast<trace::ArrayId>(a);
      if (program.arrays[a].is_fp) {
        for (const double v : next.FpArray(id)) ASSERT_EQ(v, 0.0);
      } else {
        for (const std::int32_t v : next.IntArray(id)) ASSERT_EQ(v, 0);
      }
    }
  }
}

// Deterministic stand-in for "no steady-state page faults": once the
// scratch has held the longest path, no later frame reallocates a job's
// block ids or dynamic columns, the dispatcher blocks or the segment list.
TEST(FrameScratchTest, BuffersStopMovingAfterTheLongestPath) {
  const TvcaApp app;
  FrameScratch scratch;
  app.BuildFrame(FirstSeedPerPath(app)[7], scratch);
  const auto addresses = BufferAddresses(scratch);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    app.BuildFrame(seed, scratch);
    EXPECT_EQ(BufferAddresses(scratch), addresses) << "seed " << seed;
  }
}

}  // namespace
}  // namespace spta::apps
