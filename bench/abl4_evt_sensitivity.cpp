// A4 — ablation of the EVT estimation choices (DESIGN.md).
//
// The pWCET value at a certification cutoff should be robust to the
// analysis hyper-parameters. Sweeps the block size and the tail estimator
// (Gumbel MLE, Gumbel PWM, GEV PWM) on one RAND TVCA sample and reports
// the pWCET at 1e-9 / 1e-12 for each combination, plus the PoT/GPD
// cross-check.

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "analysis/campaign.hpp"
#include "apps/tvca.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "evt/block_maxima.hpp"
#include "evt/crps.hpp"
#include "evt/gev.hpp"
#include "evt/gpd.hpp"
#include "evt/gumbel.hpp"
#include "evt/threshold.hpp"
#include "evt/pwcet.hpp"
#include "sim/platform.hpp"
#include "stats/descriptive.hpp"

/// PoT sweep bounds: excesses kept at the deepest threshold, and the tail
/// fraction of the shallowest one.
constexpr double kDeepExcesses = 25.0;
constexpr double kShallowTail = 0.25;

int main() {
  using namespace spta;
  bench::Banner("abl4_evt_sensitivity", "analysis design choices",
                "pWCET estimates are stable across block sizes and "
                "estimators (no cherry-picked hyper-parameters)");

  const apps::TvcaApp app;
  analysis::CampaignConfig cfg;
  cfg.runs = bench::RunCount(3000);
  // The PoT sweep keeps >= 25 excesses at its deepest candidate, a tail
  // fraction that must stay below the shallowest one (0.25).
  if (const int rc = bench::CheckMinRuns(
          cfg.runs, static_cast<std::size_t>(kDeepExcesses / kShallowTail) + 1)) {
    return rc;
  }
  const auto samples = analysis::RunCampaign(analysis::Workload(app, cfg),
                                             {sim::RandLeon3Config()})
                           .samples;
  const auto times = analysis::ExtractTimes(samples);
  const double hwm = stats::Max(times);
  std::printf("sample: %zu runs, HWM %.0f\n\n", times.size(), hwm);

  TextTable table({"block size", "maxima", "estimator", "pWCET@1e-9",
                   "pWCET@1e-12", "vs HWM", "CRPS"});
  for (const std::size_t block : {25u, 50u, 100u, 200u}) {
    if (times.size() / block < 10) continue;
    const auto maxima = evt::BlockMaxima(times, block);
    struct Fit {
      const char* name;
      evt::GumbelDist dist;
    };
    const evt::GevDist gev = evt::FitGevMle(maxima);
    const Fit fits[] = {
        {"Gumbel MLE", evt::FitGumbelMle(maxima)},
        {"Gumbel PWM", evt::FitGumbelPwm(maxima)},
        // GEV (MLE) collapsed to its Gumbel component for comparability
        // (the shape is reported separately below).
        {"GEV MLE (xi->0)", evt::GumbelDist{gev.mu, gev.sigma}},
    };
    for (const auto& fit : fits) {
      const evt::PwcetCurve curve(fit.dist, block, times.size());
      const double p9 = curve.QuantileForExceedance(1e-9);
      const double p12 = curve.QuantileForExceedance(1e-12);
      table.AddRow({std::to_string(block), std::to_string(maxima.size()),
                    fit.name, FormatF(p9, 0), FormatF(p12, 0),
                    FormatF(p12 / hwm, 4) + "x",
                    FormatG(evt::CrpsGumbel(fit.dist, maxima), 4)});
    }
    std::printf("block %zu: GEV shape xi = %+.4f (%s)\n", block, gev.xi,
                gev.IsEffectivelyGumbel(0.1) ? "Gumbel-compatible"
                                             : "check tail model");
  }
  std::printf("\n");
  table.Render(std::cout);

  // PoT/GPD cross-check with an automated threshold sweep. Keep at least
  // ~25 excesses at the deepest candidate regardless of the run count.
  const double min_fraction =
      std::max(0.02, kDeepExcesses / static_cast<double>(times.size()));
  const auto sweep =
      evt::SweepThresholds(times, 1e-9, kShallowTail, min_fraction);
  std::printf("\nPoT threshold sweep (plateau pick marked):\n");
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    const auto& pt = sweep.points[i];
    std::printf("  tail %5.1f%%  u=%.0f  xi=%+.3f  q(1e-9)=%.0f%s\n",
                100.0 * pt.tail_fraction, pt.threshold, pt.xi, pt.q_deep,
                static_cast<int>(i) == sweep.chosen ? "   <- chosen" : "");
  }
  std::printf(
      "\nexpected shape: estimates at a fixed cutoff stay within ~10%% of "
      "each other across block sizes and estimators, with smaller blocks "
      "(more maxima) the more conservative choice. The GEV shape goes "
      "negative for large blocks — the conflict-miss distribution is "
      "bounded — so the Gumbel (xi = 0) projection is conservative, and "
      "the PoT/GPD route lands in the same range.\n");
  return 0;
}
