// T2 — the paper's convergence statement (Section III):
//   "We execute TVCA 3,000 times to collect execution times which
//    satisfied the convergence criteria defined in the MBPTA process."
//
// Regenerates: the pWCET estimate at the reference cutoff as a function of
// the number of runs (prefixes of the collection order), the relative
// delta between consecutive re-estimates, and the run count at which the
// stabilization criterion is met.

#include <cstdio>
#include <iostream>

#include "analysis/campaign.hpp"
#include "apps/tvca.hpp"
#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "mbpta/convergence.hpp"
#include "sim/platform.hpp"

int main() {
  using namespace spta;
  bench::Banner("tab2_convergence", "Section III convergence criterion",
                "3,000 runs satisfy the MBPTA convergence criterion: the "
                "pWCET estimate stabilizes well before the full sample");

  const apps::TvcaApp app;
  analysis::CampaignConfig cfg;
  cfg.runs = bench::RunCount(3000);
  mbpta::ConvergenceOptions opts;
  opts.initial_runs = 250;
  opts.step_runs = 250;
  opts.reference_prob = 1e-12;
  opts.rel_tolerance = 0.02;
  // The first convergence checkpoint is the sample's first initial_runs.
  if (const int rc = bench::CheckMinRuns(cfg.runs, opts.initial_runs)) {
    return rc;
  }
  const auto samples = analysis::RunCampaign(analysis::Workload(app, cfg),
                                             {sim::RandLeon3Config()})
                           .samples;
  const auto times = analysis::ExtractTimes(samples);

  const auto conv = mbpta::CheckConvergence(times, opts);

  TextTable table({"runs", "pWCET@1e-12", "rel delta", "status"});
  for (const auto& pt : conv.points) {
    table.AddRow({std::to_string(pt.runs),
                  pt.usable ? FormatF(pt.pwcet, 0) : "-",
                  FormatF(pt.rel_delta, 4),
                  conv.converged && pt.runs == conv.runs_required
                      ? "<- criterion met"
                      : ""});
  }
  table.Render(std::cout);
  std::printf("\nconverged: %s at %zu runs (tolerance %.0f%%, %d stable "
              "steps)\n",
              conv.converged ? "yes" : "NO", conv.runs_required,
              100.0 * opts.rel_tolerance, opts.stable_steps_required);

  std::printf("\n# series: convergence as CSV\n");
  CsvWriter csv(std::cout);
  csv.Header({"runs", "pwcet_1e12", "rel_delta"});
  for (const auto& pt : conv.points) {
    csv.BeginRow();
    csv.Field(static_cast<std::uint64_t>(pt.runs));
    csv.Field(pt.pwcet, 10);
    csv.Field(pt.rel_delta, 4);
    csv.EndRow();
  }
  std::printf("\npaper shape: criterion satisfied within 3,000 runs.\n");
  return conv.converged ? 0 : 1;
}
