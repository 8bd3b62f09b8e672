// A2 — ablation of the cache replacement policy (DESIGN.md).
//
// The paper's platform uses random replacement in IL1/DL1/ITLB/DTLB.
// Compares LRU / NRU / random replacement on the TVCA frame: average
// performance, run-to-run spread, and the DL1 miss counts behind them.

#include <cstdio>
#include <iostream>
#include <set>

#include "analysis/campaign.hpp"
#include "apps/tvca.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/platform.hpp"
#include "stats/descriptive.hpp"

int main() {
  using namespace spta;
  bench::Banner("abl2_replacement_policies",
                "design-choice ablation (Section II cache modifications)",
                "random replacement preserves average performance while "
                "producing the probabilistic timing MBPTA needs");

  const apps::TvcaApp app;
  const auto frame = app.BuildFrame(31337);
  const std::size_t runs = bench::RunCount(300);

  TextTable table({"replacement", "mean cycles", "stddev", "max", "avg DL1"
                   " misses", "avg IL1 misses", "distinct times"});
  for (const auto replacement :
       {sim::Replacement::kLru, sim::Replacement::kNru,
        sim::Replacement::kRandom}) {
    auto cfg = sim::RandLeon3Config();
    cfg.il1.replacement = replacement;
    cfg.dl1.replacement = replacement;
    cfg.itlb.replacement = replacement;
    cfg.dtlb.replacement = replacement;
    const auto samples =
        analysis::RunCampaign(analysis::Workload(frame.trace, runs, 55), {cfg})
            .samples;
    const auto times = analysis::ExtractTimes(samples);
    double dl1 = 0.0;
    double il1 = 0.0;
    for (const auto& s : samples) {
      dl1 += static_cast<double>(s.detail.dl1.misses);
      il1 += static_cast<double>(s.detail.il1.misses);
    }
    std::set<double> distinct(times.begin(), times.end());
    const auto s = stats::Summarize(times);
    table.AddRow({sim::ToString(replacement), FormatF(s.mean, 0),
                  FormatF(s.stddev, 1), FormatF(s.max, 0),
                  FormatF(dl1 / static_cast<double>(runs), 1),
                  FormatF(il1 / static_cast<double>(runs), 1),
                  std::to_string(distinct.size())});
  }
  table.Render(std::cout);
  std::printf(
      "\nexpected shape: all three means within a few percent (random "
      "replacement costs little on average). Note the spread flip: with "
      "LRU/NRU the per-seed placement decides between benign and thrashing "
      "set alignments (large, bimodal spread), while random replacement "
      "smooths every alignment into a narrow, well-behaved distribution — "
      "exactly the probabilistic timing MBPTA wants to model.\n");
  return 0;
}
