// Property-based suites: invariants that must hold across swept parameter
// spaces — platform configurations, workload shapes, probability grids and
// seeds. These are the "for all X" claims the MBPTA argument leans on.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <set>

#include "analysis/campaign.hpp"
#include "evt/block_maxima.hpp"
#include "evt/gumbel.hpp"
#include "evt/pwcet.hpp"
#include "mbpta/mbpta.hpp"
#include "prng/xoshiro.hpp"
#include "sim/platform.hpp"
#include "stats/descriptive.hpp"
#include "trace/synthetic.hpp"

namespace spta {
namespace {

// ---------------------------------------------------------------------------
// Property: for ANY trace and ANY seed, a run on the analysis-phase RAND
// platform takes at least as long as on the operation-phase platform
// (identical except the FPU is value-dependent). This is the paper's
// upper-bounding argument for the FPU hardware change.
class FpuBoundSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FpuBoundSweep, AnalysisPhaseUpperBoundsOperation) {
  trace::BlendSpec spec;
  spec.count = 8000;
  spec.fp_pm = 200;  // FP heavy to stress the property
  const trace::Trace t = trace::BlendTrace(spec, GetParam());
  sim::Platform analysis_p(sim::RandLeon3Config(), 1);
  sim::Platform operation_p(sim::RandLeon3OperationConfig(), 1);
  for (Seed s = 0; s < 3; ++s) {
    EXPECT_GE(analysis_p.Run(t, s).cycles, operation_p.Run(t, s).cycles);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, FpuBoundSweep,
                         ::testing::Range<std::uint64_t>(0, 8));

// ---------------------------------------------------------------------------
// Property: block maxima are monotone in block size — maxima of bigger
// blocks stochastically dominate — and never below the per-block sample.
class BlockSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BlockSizeSweep, MaximaDominateSampleMean) {
  prng::Xoshiro128pp rng(GetParam());
  std::vector<double> xs(3000);
  for (auto& x : xs) x = rng.Normal();
  const auto maxima = evt::BlockMaxima(xs, GetParam());
  EXPECT_EQ(maxima.size(), xs.size() / GetParam());
  EXPECT_GE(stats::Mean(maxima), stats::Mean(xs));
  // Each maximum is an element of its block.
  for (std::size_t b = 0; b < maxima.size(); ++b) {
    const auto begin = xs.begin() + static_cast<long>(b * GetParam());
    EXPECT_NE(std::find(begin, begin + static_cast<long>(GetParam()),
                        maxima[b]),
              begin + static_cast<long>(GetParam()));
  }
}

INSTANTIATE_TEST_SUITE_P(Blocks, BlockSizeSweep,
                         ::testing::Values(5, 10, 25, 50, 100));

// ---------------------------------------------------------------------------
// Property: the pWCET curve from ANY fitted sample is monotone decreasing
// in exceedance probability and consistent under inversion.
class PwcetFitSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PwcetFitSweep, MonotoneAndInvertible) {
  prng::Xoshiro128pp rng(GetParam());
  std::vector<double> xs(2000);
  const evt::GumbelDist gen{1000.0 + 10.0 * static_cast<double>(GetParam()),
                            5.0 + static_cast<double>(GetParam())};
  for (auto& x : xs) x = gen.Quantile(std::max(rng.UniformUnit(), 1e-12));
  const auto curve = evt::PwcetCurve::FitFromSample(xs, 50);
  double prev = -1e300;
  for (int e = 2; e <= 15; ++e) {
    const double p = std::pow(10.0, -e);
    const double v = curve.QuantileForExceedance(p);
    EXPECT_GT(v, prev);
    EXPECT_NEAR(curve.ExceedanceAt(v), p, p * 1e-5);
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Fits, PwcetFitSweep,
                         ::testing::Range<std::uint64_t>(0, 10));

// ---------------------------------------------------------------------------
// Property: on the DET platform the seed is immaterial for EVERY workload
// shape (its policies are deterministic), while caches still function
// (misses < accesses for cacheable loops).
class DetInvarianceSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DetInvarianceSweep, SeedImmaterialOnDet) {
  trace::BlendSpec spec;
  spec.count = 5000;
  spec.data_bytes = 8192 << (GetParam() % 4);
  const trace::Trace t = trace::BlendTrace(spec, GetParam());
  sim::Platform det(sim::DetLeon3Config(), 123);
  std::set<Cycles> times;
  for (Seed s = 0; s < 4; ++s) times.insert(det.Run(t, s).cycles);
  EXPECT_EQ(times.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Shapes, DetInvarianceSweep,
                         ::testing::Range<std::uint64_t>(0, 8));

// ---------------------------------------------------------------------------
// Property: cache miss counts on a looping workload are bounded by the
// trivial bounds (cold misses <= misses <= accesses) for every platform
// preset and loop footprint.
struct LoopCase {
  std::size_t footprint_kb;
  bool randomized;
};

// Print a case as "<footprint>KiB_<platform>", e.g. "24KiB_rand". gtest's
// default byte dump of this struct includes its uninitialised padding,
// so the CTest name of a case would change with every build.
void PrintTo(const LoopCase& c, std::ostream* os) {
  *os << c.footprint_kb << "KiB_" << (c.randomized ? "rand" : "det");
}

class LoopBoundSweep : public ::testing::TestWithParam<LoopCase> {};

TEST_P(LoopBoundSweep, MissBoundsHold) {
  const auto [kb, randomized] = GetParam();
  const trace::Trace t =
      trace::LoopingTrace(0x40100000, kb * 1024, 32, /*iterations=*/4);
  sim::Platform p(randomized ? sim::RandLeon3Config()
                             : sim::DetLeon3Config(),
                  1);
  const auto res = p.Run(t, 5);
  const std::uint64_t lines = kb * 1024 / 32;
  EXPECT_GE(res.dl1.misses, lines);  // at least the cold misses
  EXPECT_LE(res.dl1.misses, res.dl1.accesses);
  if (kb * 1024 <= 8 * 1024) {
    // Working set half the cache: after warm-up everything hits (random
    // modulo cannot self-conflict on a contiguous region; allow hash slack).
    EXPECT_LE(res.dl1.misses, lines + 8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Footprints, LoopBoundSweep,
    ::testing::Values(LoopCase{4, false}, LoopCase{4, true},
                      LoopCase{8, false}, LoopCase{8, true},
                      LoopCase{24, false}, LoopCase{24, true},
                      LoopCase{48, false}, LoopCase{48, true}));

// ---------------------------------------------------------------------------
// Property: MBPTA analysis of ANY well-behaved unimodal sample yields a
// pWCET at 1e-12 that is at least the sample maximum (conservativeness at
// certification probabilities).
class ConservativenessSweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ConservativenessSweep, PwcetAtLeastHighWatermark) {
  prng::Xoshiro128pp rng(GetParam() * 7919 + 3);
  std::vector<double> xs(1500);
  for (auto& x : xs) {
    // Lognormal-ish execution times: realistic right-skewed sample.
    x = 10000.0 * std::exp(0.05 * rng.Normal());
  }
  mbpta::MbptaOptions opts;
  opts.require_iid = false;
  const auto r = mbpta::AnalyzeSample(xs, opts);
  ASSERT_TRUE(r.curve.has_value());
  EXPECT_GE(r.PwcetAt(1e-12), stats::Max(xs) * 0.995);
}

INSTANTIATE_TEST_SUITE_P(Samples, ConservativenessSweep,
                         ::testing::Range<std::uint64_t>(0, 12));

// ---------------------------------------------------------------------------
// Property: per-run reseeding makes RAND execution times exchangeable —
// shuffling the collection order must not change the analysis outcome
// materially (the sample really is i.i.d. across runs).
TEST(ExchangeabilityTest, ShuffledSampleGivesSamePwcet) {
  trace::BlendSpec spec;
  spec.count = 20000;
  spec.data_bytes = 40 * 1024;
  const trace::Trace t = trace::BlendTrace(spec, 11);
  sim::Platform p(sim::RandLeon3Config(), 1);
  std::vector<double> times;
  for (Seed s = 0; s < 400; ++s) {
    times.push_back(static_cast<double>(p.Run(t, s).cycles));
  }
  mbpta::MbptaOptions opts;
  opts.require_iid = false;
  const auto before = mbpta::AnalyzeSample(times, opts);
  std::vector<double> shuffled = times;
  prng::Xoshiro128pp rng(5);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.UniformBelow(
                                   static_cast<std::uint32_t>(i))]);
  }
  const auto after = mbpta::AnalyzeSample(shuffled, opts);
  ASSERT_TRUE(before.curve && after.curve);
  EXPECT_NEAR(before.PwcetAt(1e-9), after.PwcetAt(1e-9),
              0.02 * before.PwcetAt(1e-9));
}

// ---------------------------------------------------------------------------
// Property: the campaign's per-run seed derivation — the contract the
// campaign runner's determinism rests on — is collision-free over 10k run
// indices, a pure function of (campaign seed, run index), and keeps the
// platform-PRNG stream disjoint from the workload-input stream.
class SeedDerivationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedDerivationSweep, RunSeedsCollisionFreeStableAndDisjoint) {
  analysis::CampaignConfig cfg;
  cfg.master_seed = GetParam();
  constexpr std::size_t kRuns = 10000;

  std::set<Seed> run_seeds;
  for (std::size_t r = 0; r < kRuns; ++r) {
    const Seed s = analysis::TvcaRunSeed(cfg, r);
    ASSERT_EQ(s, analysis::TvcaRunSeed(cfg, r)) << "unstable at run " << r;
    run_seeds.insert(s);
  }
  EXPECT_EQ(run_seeds.size(), kRuns);  // no platform-seed collision

  std::set<Seed> fixed_seeds;
  for (std::size_t r = 0; r < kRuns; ++r) {
    fixed_seeds.insert(analysis::FixedTraceRunSeed(cfg.master_seed, r));
  }
  EXPECT_EQ(fixed_seeds.size(), kRuns);

  // Fresh-input campaigns draw one scenario seed per run; none may alias a
  // platform seed (inputs and platform randomization stay independent).
  cfg.distinct_scenarios = 0;
  for (std::size_t r = 0; r < kRuns; ++r) {
    ASSERT_EQ(run_seeds.count(analysis::TvcaScenarioSeed(cfg, r)), 0u)
        << "scenario/run seed alias at run " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(MasterSeeds, SeedDerivationSweep,
                         ::testing::Values(0ULL, 1ULL, 20170327ULL,
                                           0xdeadbeefcafeULL));

TEST(SeedDerivationProperty, DistinctCampaignSeedsGiveDisjointStreams) {
  analysis::CampaignConfig a;
  analysis::CampaignConfig b;
  a.master_seed = 20170327;
  b.master_seed = 20170328;  // adjacent seeds: the hardest case for a mixer
  std::set<Seed> sa;
  for (std::size_t r = 0; r < 10000; ++r) {
    sa.insert(analysis::TvcaRunSeed(a, r));
  }
  for (std::size_t r = 0; r < 10000; ++r) {
    ASSERT_EQ(sa.count(analysis::TvcaRunSeed(b, r)), 0u)
        << "campaigns share a platform seed at run " << r;
  }
}

}  // namespace
}  // namespace spta
