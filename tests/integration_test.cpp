// End-to-end integration tests: the full measurement-and-analysis pipeline
// on a scaled-down TVCA, reproducing the paper's qualitative claims in
// miniature (fast enough for CI).
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/campaign.hpp"
#include "apps/tvca.hpp"
#include "mbpta/convergence.hpp"
#include "mbpta/mbpta.hpp"
#include "mbpta/per_path.hpp"
#include "mbta/mbta.hpp"
#include "sim/platform.hpp"
#include "stats/descriptive.hpp"

namespace spta {
namespace {

apps::TvcaConfig SmallTvca() {
  apps::TvcaConfig cfg;
  cfg.sensor_channels = 6;
  cfg.samples_per_frame = 10;
  cfg.fir_taps = 8;
  cfg.state_dim = 16;
  cfg.integrator_steps = 10;
  cfg.control_iterations = 2;
  cfg.straightline_instructions = 600;
  return cfg;
}

class TvcaPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    app_ = new apps::TvcaApp(SmallTvca());
    analysis::CampaignConfig cfg;
    cfg.runs = 600;
    cfg.master_seed = 99;
    const analysis::Workload workload(*app_, cfg);
    rand_samples_ = new auto(
        analysis::RunCampaign(workload, {sim::RandLeon3Config()}).samples);
    det_samples_ = new auto(
        analysis::RunCampaign(workload, {sim::DetLeon3Config()}).samples);
  }

  static void TearDownTestSuite() {
    delete rand_samples_;
    delete det_samples_;
    delete app_;
  }

  static apps::TvcaApp* app_;
  static std::vector<analysis::RunSample>* rand_samples_;
  static std::vector<analysis::RunSample>* det_samples_;
};

apps::TvcaApp* TvcaPipelineTest::app_ = nullptr;
std::vector<analysis::RunSample>* TvcaPipelineTest::rand_samples_ = nullptr;
std::vector<analysis::RunSample>* TvcaPipelineTest::det_samples_ = nullptr;

TEST_F(TvcaPipelineTest, IidGatePassesOnRandPlatform) {
  // Paper Section III: Ljung-Box and two-sample KS both clear 5%.
  const auto times = analysis::ExtractTimes(*rand_samples_);
  const auto gate = mbpta::RunIidGate(times);
  EXPECT_TRUE(gate.Passed())
      << "LB p=" << gate.independence.p_value
      << " KS p=" << gate.identical_distribution.p_value;
}

TEST_F(TvcaPipelineTest, PwcetUpperBoundsObservedTail) {
  // Paper Figure 2: the Gumbel projection tightly upper-bounds the ECDF.
  const auto times = analysis::ExtractTimes(*rand_samples_);
  const auto result = mbpta::AnalyzeSample(times);
  ASSERT_TRUE(result.curve.has_value());
  const double max_obs = stats::Max(times);
  // At the empirical resolution (1/600), the model must not be below the
  // observations by more than fit noise...
  EXPECT_GT(result.PwcetAt(1.0 / 600.0), stats::Quantile(times, 0.995) * 0.99);
  // ...and must exceed the high watermark at certification probabilities.
  EXPECT_GT(result.PwcetAt(1e-9), max_obs * 0.999);
  EXPECT_GT(result.PwcetAt(1e-15), result.PwcetAt(1e-9));
}

TEST_F(TvcaPipelineTest, AveragePerformancePreserved) {
  // Paper Figure 3, first two bars: DET avg vs RAND avg — "no noticeable
  // difference" (we allow 10%).
  const auto rand_times = analysis::ExtractTimes(*rand_samples_);
  const auto det_times = analysis::ExtractTimes(*det_samples_);
  const double ratio =
      stats::Mean(rand_times) / stats::Mean(det_times);
  EXPECT_GT(ratio, 0.90);
  EXPECT_LT(ratio, 1.10);
}

TEST_F(TvcaPipelineTest, PwcetCompetitiveWithMbtaMargin) {
  // Paper conclusion: MBPTA estimates are in the same order of magnitude
  // as industrial high-watermark + 50%, with actual evidence behind them.
  const auto rand_times = analysis::ExtractTimes(*rand_samples_);
  const auto det_times = analysis::ExtractTimes(*det_samples_);
  const auto result = mbpta::AnalyzeSample(rand_times);
  ASSERT_TRUE(result.curve.has_value());
  const auto industrial = mbta::Estimate(det_times, 0.5);
  const double pwcet = result.PwcetAt(1e-12);
  EXPECT_GT(pwcet, industrial.high_watermark * 0.9);
  EXPECT_LT(pwcet, industrial.wcet_estimate * 1.5);
}

TEST_F(TvcaPipelineTest, PerPathEnvelopeDominatesPooledObservations) {
  const auto obs = analysis::ToPathObservations(*rand_samples_);
  mbpta::PerPathOptions opts;
  opts.min_samples_per_path = 60;
  const auto per_path = mbpta::AnalyzePerPath(obs, opts);
  EXPECT_GE(per_path.analyzed_count(), 1u);
  const auto times = analysis::ExtractTimes(*rand_samples_);
  EXPECT_GE(per_path.EnvelopeAt(1e-12), stats::Max(times) * 0.999);
}

TEST_F(TvcaPipelineTest, ConvergenceCriterionSatisfied) {
  // Paper: 3,000 runs satisfied the convergence criterion; our miniature
  // must converge within its 600 runs.
  const auto times = analysis::ExtractTimes(*rand_samples_);
  mbpta::ConvergenceOptions opts;
  opts.initial_runs = 150;
  opts.step_runs = 75;
  // A 600-run miniature judges stability at a less extreme reference
  // probability and a looser tolerance than a full 3,000-run campaign.
  opts.reference_prob = 1e-9;
  opts.rel_tolerance = 0.05;
  const auto conv = mbpta::CheckConvergence(times, opts);
  EXPECT_TRUE(conv.converged);
}

TEST_F(TvcaPipelineTest, DetPlatformDeterministicPerScenario) {
  // On DET, re-running the same frame gives the same time, run after run.
  const auto frame = app_->BuildFrame(1234);
  sim::Platform det(sim::DetLeon3Config(), 1);
  const auto a = det.Run(frame.trace, 1).cycles;
  const auto b = det.Run(frame.trace, 2).cycles;
  EXPECT_EQ(a, b);
}

TEST_F(TvcaPipelineTest, CampaignIsReproducible) {
  analysis::CampaignConfig cfg;
  cfg.runs = 50;
  cfg.master_seed = 7;
  const auto s1 = analysis::RunCampaign(analysis::Workload(*app_, cfg),
                                        {sim::RandLeon3Config()})
                      .samples;
  const auto s2 = analysis::RunCampaign(analysis::Workload(*app_, cfg),
                                        {sim::RandLeon3Config()})
                      .samples;
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].cycles, s2[i].cycles);
    EXPECT_EQ(s1[i].path_id, s2[i].path_id);
  }
}

TEST_F(TvcaPipelineTest, AnalysisFpuUpperBoundsOperationFpu) {
  // The hardware trick of Section II: running the SAME frame, the
  // analysis-phase platform (worst-case-fixed FPU) never undercuts the
  // operation-phase platform (value-dependent FPU).
  const auto frame = app_->BuildFrame(777);
  sim::Platform analysis_p(sim::RandLeon3Config(), 1);
  sim::Platform operation_p(sim::RandLeon3OperationConfig(), 1);
  for (Seed s = 0; s < 5; ++s) {
    const auto analysis_t = analysis_p.Run(frame.trace, s).cycles;
    const auto operation_t = operation_p.Run(frame.trace, s).cycles;
    EXPECT_GE(analysis_t, operation_t) << "seed " << s;
  }
}

TEST_F(TvcaPipelineTest, FixedScenarioSuiteReusesTraces) {
  analysis::CampaignConfig cfg;
  cfg.runs = 40;
  cfg.distinct_scenarios = 4;
  cfg.master_seed = 5;
  const auto samples = analysis::RunCampaign(analysis::Workload(*app_, cfg),
                                             {sim::RandLeon3Config()})
                           .samples;
  // Only 4 distinct paths at most; run 0 and run 4 share a scenario.
  EXPECT_EQ(samples[0].path_id, samples[4].path_id);
  EXPECT_EQ(samples[0].detail.instructions, samples[4].detail.instructions);
}

TEST_F(TvcaPipelineTest, RunSampleDetailCountersPopulated) {
  const auto& s = rand_samples_->front();
  EXPECT_GT(s.detail.instructions, 0u);
  EXPECT_GT(s.detail.il1.accesses, 0u);
  EXPECT_GT(s.detail.dl1.accesses, 0u);
  EXPECT_GT(s.detail.fpu.operations, 0u);
  EXPECT_GT(s.detail.store_buffer.stores, 0u);
  EXPECT_EQ(s.cycles, static_cast<double>(s.detail.cycles));
}

}  // namespace
}  // namespace spta
