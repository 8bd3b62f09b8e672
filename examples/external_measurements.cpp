// Analyzing measurements from an EXTERNAL source: the library's MBPTA
// pipeline does not care where execution times come from — a real LEON
// board with a cycle counter, a different simulator, a logic analyzer.
// This example writes a CSV the way a board-side harness would (here the
// bundled simulator plays the board), reads it back through the generic
// importer, and runs the full standalone analysis: i.i.d. gate, fit,
// diagnostics, per-path envelope, path coverage.

#include <cstdio>
#include <iostream>
#include <sstream>

#include "analysis/campaign.hpp"
#include "analysis/sample_io.hpp"
#include "apps/tvca.hpp"
#include "mbpta/confidence.hpp"
#include "mbpta/mbpta.hpp"
#include "mbpta/path_coverage.hpp"
#include "mbpta/per_path.hpp"
#include "mbpta/report.hpp"
#include "sim/platform.hpp"

int main() {
  using namespace spta;

  // --- The "board side": dump cycles,path_id CSV. -----------------------
  std::ostringstream wire;  // stands in for a file / serial link
  {
    const apps::TvcaApp app;
    analysis::CampaignConfig cfg;
    cfg.runs = 1200;
    const auto samples = analysis::RunCampaign(analysis::Workload(app, cfg),
                                               {sim::RandLeon3Config()})
                             .samples;
    analysis::WriteSamplesCsv(wire, samples);
    std::printf("board: streamed %zu measurements\n", samples.size());
  }

  // --- The "analysis side": CSV in, certification evidence out. ----------
  const auto obs = analysis::ReadSamplesCsv(wire.str());
  std::printf("analysis: loaded %zu observations\n\n", obs.size());

  std::vector<double> times;
  times.reserve(obs.size());
  for (const auto& o : obs) times.push_back(o.time);

  const auto result = mbpta::AnalyzeSample(times);
  std::cout << mbpta::RenderReport(result, "external sample (pooled)");

  if (result.curve) {
    const auto ci = mbpta::BootstrapPwcetCi(times, 1e-12,
                                            result.block_size, 400);
    std::printf("pWCET@1e-12: %.0f cycles, 95%% CI [%.0f, %.0f]\n",
                ci.point, ci.lower, ci.upper);
  }

  const auto coverage = mbpta::EstimatePathCoverage(obs);
  std::printf(
      "\npath coverage: %zu paths seen (%zu singletons); Good-Turing "
      "unseen-path probability %.3g -> %s\n",
      coverage.observed_paths, coverage.singleton_paths,
      coverage.missing_mass,
      coverage.SufficientFor(1e-3)
          ? "path evidence adequate at the 1e-3 level"
          : "collect more runs before quoting per-path numbers");

  mbpta::PerPathOptions ppo;
  ppo.min_samples_per_path = 100;
  const auto per_path = mbpta::AnalyzePerPath(obs, ppo);
  std::cout << mbpta::RenderReport(per_path);
  return result.usable ? 0 : 1;
}
