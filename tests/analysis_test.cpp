// Tests for the analysis module: campaign mechanics, sample extraction,
// and the pWCET bootstrap confidence intervals.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "analysis/campaign.hpp"
#include "apps/tvca.hpp"
#include "evt/gumbel.hpp"
#include "mbpta/confidence.hpp"
#include "prng/xoshiro.hpp"
#include "sim/platform.hpp"
#include "trace/synthetic.hpp"

namespace spta {
namespace {

apps::TvcaConfig TinyTvca() {
  apps::TvcaConfig cfg;
  cfg.sensor_channels = 4;
  cfg.samples_per_frame = 6;
  cfg.fir_taps = 4;
  cfg.state_dim = 8;
  cfg.integrator_steps = 4;
  cfg.control_iterations = 1;
  cfg.straightline_instructions = 100;
  return cfg;
}

TEST(CampaignTest, FixedTraceCampaignSizeAndDeterminism) {
  const trace::Trace t = trace::BlendTrace({}, 1);
  const analysis::Workload workload(t, 20, 7);
  const auto a = analysis::RunCampaign(workload, {sim::RandLeon3Config()});
  ASSERT_EQ(a.samples.size(), 20u);
  const auto b = analysis::RunCampaign(workload, {sim::RandLeon3Config()});
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].cycles, b.samples[i].cycles);
  }
}

TEST(CampaignTest, FixedTraceCampaignSeedsDiffer) {
  const trace::Trace t = trace::BlendTrace({}, 1);
  const auto a = analysis::RunCampaign(analysis::Workload(t, 20, 7),
                                       {sim::RandLeon3Config()})
                     .samples;
  const auto b = analysis::RunCampaign(analysis::Workload(t, 20, 8),
                                       {sim::RandLeon3Config()})
                     .samples;
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff |= a[i].cycles != b[i].cycles;
  }
  EXPECT_TRUE(any_diff);
}

TEST(CampaignTest, TvcaCampaignFreshInputsGiveDistinctInstructionCounts) {
  const apps::TvcaApp app(TinyTvca());
  analysis::CampaignConfig cfg;
  cfg.runs = 30;
  const auto samples = analysis::RunCampaign(analysis::Workload(app, cfg),
                                             {sim::RandLeon3Config()})
                           .samples;
  std::set<std::uint64_t> instr;
  for (const auto& s : samples) instr.insert(s.detail.instructions);
  EXPECT_GT(instr.size(), 3u);  // multiple paths / input-dependent lengths
}

TEST(CampaignTest, DistinctScenariosCycleDeterministically) {
  const apps::TvcaApp app(TinyTvca());
  analysis::CampaignConfig cfg;
  cfg.runs = 12;
  cfg.distinct_scenarios = 3;
  const auto samples = analysis::RunCampaign(analysis::Workload(app, cfg),
                                             {sim::DetLeon3Config()})
                           .samples;
  // On DET, identical scenario => identical cycles.
  for (std::size_t i = 0; i + 3 < samples.size(); ++i) {
    EXPECT_EQ(samples[i].cycles, samples[i + 3].cycles) << i;
  }
}

TEST(CampaignTest, ExtractTimesPreservesOrder) {
  std::vector<analysis::RunSample> samples(3);
  samples[0].cycles = 3.0;
  samples[1].cycles = 1.0;
  samples[2].cycles = 2.0;
  const auto times = analysis::ExtractTimes(samples);
  EXPECT_EQ(times, (std::vector<double>{3.0, 1.0, 2.0}));
}

TEST(CampaignTest, ToPathObservationsKeepsIds) {
  std::vector<analysis::RunSample> samples(2);
  samples[0].cycles = 10.0;
  samples[0].path_id = 4;
  samples[1].cycles = 20.0;
  samples[1].path_id = 6;
  const auto obs = analysis::ToPathObservations(samples);
  ASSERT_EQ(obs.size(), 2u);
  EXPECT_EQ(obs[0].path_id, 4u);
  EXPECT_DOUBLE_EQ(obs[1].time, 20.0);
}

std::vector<double> GumbelSample(double mu, double beta, std::size_t n,
                                 std::uint64_t seed) {
  prng::Xoshiro128pp rng(seed);
  evt::GumbelDist d{mu, beta};
  std::vector<double> xs(n);
  for (auto& x : xs) x = d.Quantile(std::max(rng.UniformUnit(), 1e-12));
  return xs;
}

TEST(ConfidenceTest, CiBracketsPointEstimate) {
  const auto xs = GumbelSample(1000.0, 25.0, 3000, 5);
  const auto ci = mbpta::BootstrapPwcetCi(xs, 1e-9, 100, 400, 0.95, 3);
  EXPECT_LE(ci.lower, ci.point);
  EXPECT_GE(ci.upper, ci.point);
  EXPECT_GT(ci.RelativeWidth(), 0.0);
  EXPECT_LT(ci.RelativeWidth(), 0.25);
  EXPECT_DOUBLE_EQ(ci.exceedance_prob, 1e-9);
}

TEST(ConfidenceTest, DeterministicPerSeed) {
  const auto xs = GumbelSample(1000.0, 25.0, 2000, 6);
  const auto a = mbpta::BootstrapPwcetCi(xs, 1e-12, 50, 200, 0.9, 11);
  const auto b = mbpta::BootstrapPwcetCi(xs, 1e-12, 50, 200, 0.9, 11);
  EXPECT_DOUBLE_EQ(a.lower, b.lower);
  EXPECT_DOUBLE_EQ(a.upper, b.upper);
}

TEST(ConfidenceTest, MoreDataTightensInterval) {
  const auto small = GumbelSample(1000.0, 25.0, 600, 7);
  const auto large = GumbelSample(1000.0, 25.0, 6000, 7);
  const auto ci_small =
      mbpta::BootstrapPwcetCi(small, 1e-9, 20, 400, 0.95, 3);
  const auto ci_large =
      mbpta::BootstrapPwcetCi(large, 1e-9, 20, 400, 0.95, 3);
  EXPECT_LT(ci_large.RelativeWidth(), ci_small.RelativeWidth());
}

TEST(ConfidenceTest, CoversTrueQuantileUsually) {
  // Coverage spot check: for the known generating distribution the CI at
  // 95% should contain the true quantile in the large majority of trials.
  const evt::GumbelDist truth{1000.0, 25.0};
  int covered = 0;
  constexpr int kTrials = 20;
  for (int t = 0; t < kTrials; ++t) {
    const auto xs =
        GumbelSample(truth.mu, truth.beta, 3000, 100 + t);
    const auto ci = mbpta::BootstrapPwcetCi(xs, 1e-6, 100, 300, 0.95,
                                            static_cast<std::uint64_t>(t));
    // True per-run quantile for exceedance 1e-6.
    const double true_q = truth.Quantile(1.0 - 1e-6);
    if (true_q >= ci.lower && true_q <= ci.upper) ++covered;
  }
  EXPECT_GE(covered, 15) << "coverage collapsed";
}

}  // namespace
}  // namespace spta
