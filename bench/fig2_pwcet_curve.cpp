// F2 — paper Figure 2: "pWCET estimates obtained with MBPTA for TVCA".
//
// X axis: execution time; Y axis: exceedance probability (log scale). The
// figure shows the observed execution-time tail (dots) and the Gumbel
// projection (straight line on the log axis) tightly upper-bounding it.
//
// Regenerates both series as CSV: the observed tail points P[X >= v] and
// the fitted pWCET curve from 1e-1 down to 1e-16, pooled and as the
// per-path envelope.

#include <cmath>
#include <cstdio>
#include <iostream>

#include "analysis/campaign.hpp"
#include "apps/tvca.hpp"
#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "mbpta/backtest.hpp"
#include "mbpta/confidence.hpp"
#include "mbpta/mbpta.hpp"
#include "mbpta/per_path.hpp"
#include "mbpta/report.hpp"
#include "sim/platform.hpp"
#include "stats/ecdf.hpp"

int main() {
  using namespace spta;
  bench::Banner("fig2_pwcet_curve", "Figure 2 (pWCET CCDF for TVCA)",
                "the Gumbel projection tightly upper-bounds the observed "
                "execution-time tail at every observable probability");

  const apps::TvcaApp app;
  analysis::CampaignConfig cfg;
  cfg.runs = bench::RunCount(3000);
  // SplitBacktest fits each half of the sample on >= min_blocks maxima.
  if (const int rc = bench::CheckMinRuns(
          cfg.runs, 2 * mbpta::MbptaOptions{}.min_blocks)) {
    return rc;
  }
  const auto samples = analysis::RunCampaign(analysis::Workload(app, cfg),
                                             {sim::RandLeon3Config()})
                           .samples;
  const auto times = analysis::ExtractTimes(samples);

  const auto result = mbpta::AnalyzeSample(times);
  std::cout << mbpta::RenderReport(result, "TVCA pooled analysis");
  if (result.curve) {
    const auto ci = mbpta::BootstrapPwcetCi(times, 1e-12, result.block_size,
                                            400, 0.95, 17);
    std::printf(
        "pWCET@1e-12 bootstrap 95%% CI: [%.0f, %.0f] around %.0f "
        "(rel. width %.2f%%)\n",
        ci.lower, ci.upper, ci.point, 100.0 * ci.RelativeWidth());
  }

  // Out-of-sample validation at observable probabilities: fit on the first
  // half of the campaign, count exceedances in the second half.
  const auto backtest = mbpta::SplitBacktest(times);
  std::printf("\nbacktest (fit on %zu runs, validate on %zu):\n",
              backtest.analysis_runs, backtest.validation_runs);
  for (const auto& pt : backtest.points) {
    std::printf(
        "  p=%-6s bound=%.0f  expected<=%zu observed=%zu  %s\n",
        FormatProb(pt.nominal_prob).c_str(), pt.bound, pt.expected,
        pt.observed, pt.consistent ? "consistent" : "VIOLATION");
  }

  const auto per_path =
      mbpta::AnalyzePerPath(analysis::ToPathObservations(samples));

  // Series 1: observed tail (staircase, one point per distinct value of
  // the top of the distribution).
  std::printf("\n# series: observed execution-time tail\n");
  CsvWriter obs(std::cout);
  obs.Header({"exec_time_cycles", "exceedance_prob"});
  const stats::Ecdf ecdf(times);
  for (const auto& [value, prob] : ecdf.TailPoints(60)) {
    obs.BeginRow();
    obs.Field(value, 10);
    obs.Field(prob, 6);
    obs.EndRow();
  }

  // Series 2: fitted pWCET curve (pooled + per-path envelope).
  std::printf("\n# series: pWCET projection\n");
  CsvWriter fit(std::cout);
  fit.Header({"exceedance_prob", "pwcet_pooled", "pwcet_path_envelope"});
  for (int e = 1; e <= 16; ++e) {
    const double p = std::pow(10.0, -e);
    fit.BeginRow();
    fit.Field(p, 3);
    fit.Field(result.curve ? result.curve->QuantileForExceedance(p) : 0.0,
              10);
    fit.Field(per_path.analyzed_count() > 0 ? per_path.EnvelopeAt(p) : 0.0,
              10);
    fit.EndRow();
  }

  // Upper-bounding check over the observable tail (the figure's visual
  // claim, made numeric). The EVT model bounds the *tail*: only points at
  // exceedance probabilities below 1% are in scope — at body probabilities
  // a block-maxima model makes no statement.
  std::size_t violations = 0;
  std::size_t in_scope = 0;
  if (result.curve) {
    for (const auto& [value, prob] : ecdf.TailPoints()) {
      if (prob > 0.01) continue;
      ++in_scope;
      // "Tight" means the projection may touch the staircase; flag only
      // violations beyond 0.2% (beyond fit noise).
      if (result.curve->QuantileForExceedance(prob) < 0.998 * value) {
        ++violations;
      }
    }
  }
  std::printf(
      "\nupper-bound check: %zu of %zu observed tail points (p <= 1e-2) "
      "exceed the projection by >0.2%% (paper shape: 0, a tight bound from "
      "above)\n",
      violations, in_scope);
  return violations == 0 ? 0 : 1;
}
