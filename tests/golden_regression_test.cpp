// Golden-value regression guards + cross-kernel static-bound soundness.
//
// The golden values pin the exact timing of one reference workload under
// fixed seeds. They are EXPECTED to change whenever the timing model is
// deliberately re-tuned — the test exists so such changes are explicit
// (update the constants alongside the model change and re-baseline the
// benches) rather than accidental drift.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <ostream>
#include <vector>

#include "analysis/campaign.hpp"
#include "apps/kernels.hpp"
#include "apps/tvca.hpp"
#include "common/hash.hpp"
#include "mbpta/mbpta.hpp"
#include "prng/xoshiro.hpp"
#include "sim/platform.hpp"
#include "swcet/static_bound.hpp"
#include "trace/interpreter.hpp"

namespace spta {
namespace {

TEST(GoldenRegressionTest, ReferenceFrameTiming) {
  const apps::TvcaApp app;
  const auto frame = app.BuildFrame(42);
  EXPECT_EQ(frame.trace.records.size(), 224837u);
  EXPECT_EQ(frame.path_id, 4u);

  sim::Platform det(sim::DetLeon3Config(), 1);
  sim::Platform rnd(sim::RandLeon3Config(), 1);
  EXPECT_EQ(det.Run(frame.trace, 7).cycles, 826594u);
  EXPECT_EQ(rnd.Run(frame.trace, 7).cycles, 873322u);
  EXPECT_EQ(rnd.Run(frame.trace, 8).cycles, 879851u);
}

// ---------------------------------------------------------------------------
// Per-seed cycle + miss-count goldens for three workloads (the reduced
// TVCA frame and two kernel traces), frozen from the pre-fast-path tree.
// The throughput refactor's bit-identity contract means these can never
// drift; a deliberate timing-model change re-baselines them explicitly.
struct SeedGolden {
  std::uint64_t seed;
  std::uint64_t cycles;
  std::uint64_t il1_misses;
  std::uint64_t dl1_misses;
  std::uint64_t itlb_misses;
  std::uint64_t dtlb_misses;
};

void ExpectRunMatches(sim::Platform& platform, const trace::Trace& t,
                      const SeedGolden& golden, const char* workload) {
  const sim::RunResult result = platform.Run(t, golden.seed);
  EXPECT_EQ(result.cycles, golden.cycles) << workload << " seed "
                                          << golden.seed;
  EXPECT_EQ(result.il1.misses, golden.il1_misses) << workload;
  EXPECT_EQ(result.dl1.misses, golden.dl1_misses) << workload;
  EXPECT_EQ(result.itlb.misses, golden.itlb_misses) << workload;
  EXPECT_EQ(result.dtlb.misses, golden.dtlb_misses) << workload;
}

// Frozen per-seed goldens. The reduced TVCA frame's DL1 conflict misses
// move with the placement seed; matmul/fir fit L1 entirely, so every seed
// pins identical numbers.
constexpr SeedGolden kReducedTvcaDetGolden = {7, 50538, 112, 400, 4, 7};
constexpr SeedGolden kReducedTvcaRandGoldens[] = {
    {1, 50592, 112, 400, 4, 7}, {2, 50634, 112, 401, 4, 7},
    {3, 50592, 112, 400, 4, 7}, {4, 50592, 112, 400, 4, 7},
    {5, 50706, 112, 401, 4, 7},
};
constexpr SeedGolden kMatmulGoldens[] = {
    {7, 34209, 4, 150, 1, 1}, {1, 34209, 4, 150, 1, 1},
    {2, 34209, 4, 150, 1, 1}, {3, 34209, 4, 150, 1, 1},
    {4, 34209, 4, 150, 1, 1}, {5, 34209, 4, 150, 1, 1},
};
constexpr SeedGolden kFirGoldens[] = {
    {7, 11779, 3, 84, 1, 1}, {1, 11779, 3, 84, 1, 1},
    {2, 11779, 3, 84, 1, 1}, {3, 11779, 3, 84, 1, 1},
    {4, 11779, 3, 84, 1, 1}, {5, 11779, 3, 84, 1, 1},
};

apps::TvcaConfig ReducedTvcaConfig() {
  apps::TvcaConfig tc;
  tc.sensor_channels = 4;
  tc.samples_per_frame = 8;
  tc.fir_taps = 6;
  tc.state_dim = 8;
  tc.integrator_steps = 6;
  tc.control_iterations = 1;
  tc.straightline_instructions = 200;
  tc.dispatch_overhead = 32;
  return tc;
}

trace::Trace MatmulTrace() {
  const trace::Program program = apps::MakeMatMulProgram(10);
  trace::Interpreter interp(program);
  prng::Xoshiro128pp rng(77);
  for (int i = 0; i < 100; ++i) {
    interp.WriteFp(0, static_cast<std::size_t>(i), rng.UniformUnit());
    interp.WriteFp(1, static_cast<std::size_t>(i), rng.UniformUnit());
  }
  return interp.Run();
}

trace::Trace FirTrace() {
  const trace::Program program = apps::MakeFirProgram(8, 64);
  trace::Interpreter interp(program);
  prng::Xoshiro128pp rng(78);
  for (int i = 0; i < 8; ++i) {
    interp.WriteFp(0, static_cast<std::size_t>(i), 0.125);
  }
  for (int i = 0; i < 72; ++i) {
    interp.WriteFp(1, static_cast<std::size_t>(i), rng.Normal());
  }
  return interp.Run();
}

TEST(GoldenRegressionTest, ReducedTvcaPerSeedCycles) {
  const apps::TvcaApp app(ReducedTvcaConfig());
  const auto frame = app.BuildFrame(42);
  ASSERT_EQ(frame.trace.records.size(), 9065u);
  ASSERT_EQ(frame.path_id, 4u);

  sim::Platform det(sim::DetLeon3Config(), 1);
  ExpectRunMatches(det, frame.trace, kReducedTvcaDetGolden,
                   "tvca-reduced det");

  // Randomized platform: placement/replacement seeds perturb DL1 conflict
  // misses run to run, while the instruction side stays untouched (the
  // reduced frame's code footprint fits IL1 for every placement seed).
  sim::Platform rnd(sim::RandLeon3Config(), 1);
  for (const auto& golden : kReducedTvcaRandGoldens) {
    ExpectRunMatches(rnd, frame.trace, golden, "tvca-reduced rand");
  }
}

TEST(GoldenRegressionTest, MatmulKernelPerSeedCycles) {
  const trace::Trace t = MatmulTrace();
  ASSERT_EQ(t.records.size(), 13286u);

  // The 10x10 matmul's whole footprint fits both L1s: randomization has
  // nothing to perturb (cold misses only), so DET and every RAND seed pin
  // the exact same numbers — itself a property worth freezing.
  sim::Platform det(sim::DetLeon3Config(), 1);
  ExpectRunMatches(det, t, kMatmulGoldens[0], "matmul det");
  sim::Platform rnd(sim::RandLeon3Config(), 1);
  for (std::size_t i = 1; i < std::size(kMatmulGoldens); ++i) {
    ExpectRunMatches(rnd, t, kMatmulGoldens[i], "matmul rand");
  }
}

TEST(GoldenRegressionTest, FirKernelPerSeedCycles) {
  const trace::Trace t = FirTrace();
  ASSERT_EQ(t.records.size(), 5255u);

  sim::Platform det(sim::DetLeon3Config(), 1);
  ExpectRunMatches(det, t, kFirGoldens[0], "fir det");
  sim::Platform rnd(sim::RandLeon3Config(), 1);
  for (std::size_t i = 1; i < std::size(kFirGoldens); ++i) {
    ExpectRunMatches(rnd, t, kFirGoldens[i], "fir rand");
  }
}

// ---------------------------------------------------------------------------
// End-to-end MBPTA pipeline golden values, produced THROUGH the campaign
// runner at 4 jobs: the sample vector must equal the 1-job run's bit for
// bit, and the downstream pipeline (Ljung-Box, KS, Gumbel fit, pWCET) must
// therefore reproduce the pinned numbers regardless of the job count used
// to collect the measurements. Re-baseline these constants only alongside a
// deliberate timing-model change.
TEST(GoldenRegressionTest, MbptaPipelineThroughParallelRunner) {
  apps::TvcaConfig tc;  // reduced frame so 300 runs stay test-sized
  tc.sensor_channels = 4;
  tc.samples_per_frame = 8;
  tc.fir_taps = 6;
  tc.state_dim = 8;
  tc.integrator_steps = 6;
  tc.control_iterations = 1;
  tc.straightline_instructions = 200;
  tc.dispatch_overhead = 32;
  const apps::TvcaApp app(tc);

  analysis::CampaignConfig cc;
  cc.runs = 300;  // fresh inputs per run, the paper's analysis protocol

  const analysis::Workload workload(app, cc);
  const auto serial_times = analysis::ExtractTimes(
      analysis::RunCampaign(workload, {sim::RandLeon3Config(), 1}).samples);
  const auto parallel_times = analysis::ExtractTimes(
      analysis::RunCampaign(workload, {sim::RandLeon3Config(), 4}).samples);
  ASSERT_EQ(serial_times, parallel_times);  // bit-identical doubles

  const auto result = mbpta::AnalyzeSample(parallel_times);
  EXPECT_TRUE(result.usable);
  EXPECT_TRUE(result.iid.Passed());
  // Golden i.i.d. gate values and pWCET, pinned from the deterministic
  // sample (identical under any --jobs, asserted above).
  EXPECT_NEAR(result.iid.independence.p_value, 0.142373525583, 1e-9);
  EXPECT_NEAR(result.iid.identical_distribution.p_value, 0.799993650987,
              1e-9);
  EXPECT_EQ(result.block_size, 10u);
  EXPECT_NEAR(result.PwcetAt(1e-12), 88623.514295, 1e-3);
}

// ---------------------------------------------------------------------------
// A test-vector suite campaign (the full TVCA frame, 6 scenarios cycled
// over 60 runs) pinned by a digest of every run's cycles and path, at one
// job and at three. The digest was recorded from the runner that measured
// the suite as owned record traces, so it pins the suite's bytes across
// any change of frame form, not only against the record-loop reference.
TEST(GoldenRegressionTest, SuiteCampaignCyclesDigest) {
  const apps::TvcaApp app;
  analysis::CampaignConfig cc;
  cc.runs = 60;
  cc.distinct_scenarios = 6;
  const analysis::Workload workload(app, cc);
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(jobs);
    const auto result =
        analysis::RunCampaign(workload, {sim::RandLeon3Config(), jobs});
    ASSERT_TRUE(result.completed);
    std::uint64_t digest = 0;
    for (const auto& s : result.samples) {
      digest = HashCombine(digest, s.detail.cycles);
      digest = HashCombine(digest, s.path_id);
    }
    EXPECT_EQ(digest, 0x0dcd3b2e7c0aaf3dULL);
  }
}

// ---------------------------------------------------------------------------
// Static-bound soundness across the whole kernel suite: for every kernel,
// derive loop bounds from one exercising trace (with margin) and check the
// bound dominates simulated executions over fresh inputs and seeds.
struct KernelUnderTest {
  const char* name;
  std::function<trace::Program()> make_program;
  std::function<void(trace::Interpreter&, std::uint64_t)> poke;
};

// Print a case as its kernel name. gtest's default byte dump of this
// struct shows the address of `name` and of the two std::function
// targets, so the CTest name of each case would change with every build
// and load address.
void PrintTo(const KernelUnderTest& k, std::ostream* os) { *os << k.name; }

class StaticSoundnessSweep
    : public ::testing::TestWithParam<KernelUnderTest> {};

TEST_P(StaticSoundnessSweep, BoundDominatesSimulatedRuns) {
  const auto& k = GetParam();
  const trace::Program program = k.make_program();

  // Evidence trace for loop bounds (seed 0); margin covers other inputs.
  trace::Interpreter evidence(program);
  k.poke(evidence, 0);
  const trace::Trace evidence_trace = evidence.Run();
  const std::vector<const trace::Trace*> traces = {&evidence_trace};
  const auto bounds = swcet::DeriveLoopBounds(program, traces, 1.5);
  const auto config = sim::RandLeon3Config();
  const auto bound = swcet::ComputeStaticBound(program, bounds, config);

  sim::Platform platform(config, 1);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    trace::Interpreter interp(program);
    k.poke(interp, seed);
    const auto t = interp.Run();
    const auto res = platform.Run(t, seed);
    EXPECT_GE(bound.wcet_bound, res.cycles) << k.name << " seed " << seed;
    // The best-case figure is a floor under the ANNOTATED (margin-inflated)
    // iteration counts, not under observed executions — so it is only
    // sanity-checked for being strictly below the worst-case bound.
    EXPECT_LT(bound.bcet_bound, bound.wcet_bound) << k.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, StaticSoundnessSweep,
    ::testing::Values(
        KernelUnderTest{"matmul",
                        [] { return apps::MakeMatMulProgram(10); },
                        [](trace::Interpreter& in, std::uint64_t seed) {
                          prng::Xoshiro128pp rng(seed);
                          for (int i = 0; i < 100; ++i) {
                            in.WriteFp(0, (std::size_t)i, rng.UniformUnit());
                            in.WriteFp(1, (std::size_t)i, rng.UniformUnit());
                          }
                        }},
        KernelUnderTest{"fir",
                        [] { return apps::MakeFirProgram(8, 64); },
                        [](trace::Interpreter& in, std::uint64_t seed) {
                          prng::Xoshiro128pp rng(seed);
                          for (int i = 0; i < 8; ++i) {
                            in.WriteFp(0, (std::size_t)i, 0.125);
                          }
                          for (int i = 0; i < 72; ++i) {
                            in.WriteFp(1, (std::size_t)i, rng.Normal());
                          }
                        }},
        KernelUnderTest{"crc",
                        [] { return apps::MakeCrcProgram(128); },
                        [](trace::Interpreter& in, std::uint64_t seed) {
                          prng::Xoshiro128pp rng(seed);
                          for (int i = 0; i < 256; ++i) {
                            in.WriteInt(0, (std::size_t)i,
                                        (std::int32_t)(rng.Next() & 0xffff));
                          }
                          for (int i = 0; i < 128; ++i) {
                            in.WriteInt(1, (std::size_t)i,
                                        (std::int32_t)(rng.Next() & 0xff));
                          }
                        }},
        KernelUnderTest{"bubble-sort",
                        [] { return apps::MakeBubbleSortProgram(40); },
                        [](trace::Interpreter& in, std::uint64_t seed) {
                          prng::Xoshiro128pp rng(seed);
                          for (int i = 0; i < 40; ++i) {
                            in.WriteInt(0, (std::size_t)i,
                                        (std::int32_t)rng.UniformBelow(1000));
                          }
                        }},
        KernelUnderTest{"binary-search",
                        [] { return apps::MakeBinarySearchProgram(256, 16); },
                        [](trace::Interpreter& in, std::uint64_t seed) {
                          prng::Xoshiro128pp rng(seed);
                          for (int i = 0; i < 256; ++i) {
                            in.WriteInt(0, (std::size_t)i, 2 * i);
                          }
                          for (int q = 0; q < 16; ++q) {
                            in.WriteInt(1, (std::size_t)q,
                                        (std::int32_t)rng.UniformBelow(512));
                          }
                        }},
        KernelUnderTest{"interpolation",
                        [] { return apps::MakeInterpolationProgram(32, 16); },
                        [](trace::Interpreter& in, std::uint64_t seed) {
                          prng::Xoshiro128pp rng(seed);
                          for (int i = 0; i < 32; ++i) {
                            in.WriteFp(0, (std::size_t)i, 1.0 * i);
                            in.WriteFp(1, (std::size_t)i, 0.5 * i);
                          }
                          for (int q = 0; q < 16; ++q) {
                            in.WriteFp(2, (std::size_t)q,
                                       rng.UniformReal(-3.0, 35.0));
                          }
                        }},
        KernelUnderTest{"lu-solve",
                        [] { return apps::MakeLuSolveProgram(8); },
                        [](trace::Interpreter& in, std::uint64_t seed) {
                          prng::Xoshiro128pp rng(seed);
                          for (int i = 0; i < 8; ++i) {
                            for (int j = 0; j < 8; ++j) {
                              double v = 0.2 * (rng.UniformUnit() - 0.5);
                              if (i == j) v += 3.0;
                              in.WriteFp(0, (std::size_t)(i * 8 + j), v);
                            }
                            in.WriteFp(1, (std::size_t)i, rng.Normal());
                          }
                        }},
        KernelUnderTest{"attitude",
                        [] { return apps::MakeAttitudeProgram(6); },
                        [](trace::Interpreter& in, std::uint64_t seed) {
                          prng::Xoshiro128pp rng(seed);
                          in.WriteFp(0, 0, 1.0);
                          for (int s = 0; s < 18; ++s) {
                            in.WriteFp(1, (std::size_t)s,
                                       rng.UniformReal(-1.0, 1.0));
                          }
                        }}));

}  // namespace
}  // namespace spta
