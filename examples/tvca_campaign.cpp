// The paper's full space case study, end to end:
//
//   * TVCA (3 periodic tasks under a fixed-priority scheduler) runs on the
//     MBPTA-compliant RAND platform; 3,000 measurement runs with cache
//     flush + new PRNG seed per run.
//   * i.i.d. gate (Ljung-Box + two-sample KS at 5%), per-path MBPTA with
//     the max-across-paths envelope (paper Section III).
//   * Comparison against industrial MBTA (DET platform high watermark
//     + engineering margin).

#include <cstdio>
#include <iostream>

#include "analysis/campaign.hpp"
#include "apps/tvca.hpp"
#include "mbpta/mbpta.hpp"
#include "mbpta/per_path.hpp"
#include "mbpta/report.hpp"
#include "mbta/mbta.hpp"
#include "sim/platform.hpp"
#include "stats/descriptive.hpp"

int main() {
  using namespace spta;

  const apps::TvcaApp app;
  analysis::CampaignConfig cfg;
  cfg.runs = 3000;  // the paper's sample size

  // The campaign is bit-identical for any job count, so using every
  // hardware thread changes nothing but wall clock.
  const std::size_t jobs = analysis::DefaultJobs();
  const analysis::Workload workload(app, cfg);
  std::printf("collecting %zu runs on RAND (%zu jobs)...\n", cfg.runs, jobs);
  const auto rand_samples =
      analysis::RunCampaign(workload, {sim::RandLeon3Config(), jobs}).samples;
  const auto rand_times = analysis::ExtractTimes(rand_samples);

  std::printf("collecting %zu runs on DET (%zu jobs)...\n", cfg.runs, jobs);
  const auto det_samples =
      analysis::RunCampaign(workload, {sim::DetLeon3Config(), jobs}).samples;
  const auto det_times = analysis::ExtractTimes(det_samples);

  // Whole-sample analysis (i.i.d. gate as reported in the paper).
  const auto whole = mbpta::AnalyzeSample(rand_times);
  std::cout << mbpta::RenderReport(whole, "TVCA on RAND (all paths pooled)");

  // Per-path analysis with max-across-paths envelope.
  const auto per_path =
      mbpta::AnalyzePerPath(analysis::ToPathObservations(rand_samples));
  std::cout << mbpta::RenderReport(per_path, "TVCA on RAND (per path)");

  // Industrial MBTA baseline on DET.
  const auto mbta50 = mbta::Estimate(det_times, 0.5);
  std::printf("\nDET avg %.0f | RAND avg %.0f (ratio %.3f)\n",
              stats::Mean(det_times), stats::Mean(rand_times),
              stats::Mean(rand_times) / stats::Mean(det_times));
  std::printf("DET HWM %.0f | MBTA(+50%%) %.0f | pWCET@1e-12 %.0f\n",
              mbta50.high_watermark, mbta50.wcet_estimate,
              per_path.EnvelopeAt(1e-12));
  return 0;
}
