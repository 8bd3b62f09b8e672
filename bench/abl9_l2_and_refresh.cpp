// A9 — extension: a shared L2 cache and DRAM refresh.
//
// Two platform features the LEON3 board of the paper lacks but its
// successors (LEON4 with shared L2) and every real DRAM have. Both change
// the MBPTA picture:
//  * a shared L2 absorbs most DRAM traffic (lower mean) and, if it uses
//    deterministic policies, re-introduces layout-dependent jitter behind
//    the randomized L1s — so the MBPTA-compliant configuration randomizes
//    the L2 as well;
//  * DRAM refresh adds phase-dependent stalls that measurement protocols
//    must either capture (enough runs, varying phase) or bound.

#include <cstdio>
#include <iostream>

#include "analysis/campaign.hpp"
#include "apps/tvca.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "mbpta/mbpta.hpp"
#include "sim/platform.hpp"
#include "stats/descriptive.hpp"

namespace {

spta::sim::PlatformConfig WithL2(spta::sim::PlatformConfig cfg,
                                 bool randomized_l2) {
  cfg.l2.enabled = true;
  cfg.l2.cache.size_bytes = 128 * 1024;
  cfg.l2.cache.ways = 8;
  if (randomized_l2) {
    cfg.l2.cache.placement = spta::sim::Placement::kRandomModulo;
    cfg.l2.cache.replacement = spta::sim::Replacement::kRandom;
  }
  return cfg;
}

}  // namespace

int main() {
  using namespace spta;
  bench::Banner("abl9_l2_and_refresh",
                "extension: shared L2 + DRAM refresh",
                "an L2 cuts the mean; randomizing it keeps MBPTA valid; "
                "refresh adds bounded phase jitter the campaign captures");

  const apps::TvcaApp app;
  analysis::CampaignConfig cfg;
  cfg.runs = bench::RunCount(800);

  struct Variant {
    const char* name;
    sim::PlatformConfig config;
  };
  std::vector<Variant> variants;
  variants.push_back({"RAND, no L2", sim::RandLeon3Config()});
  variants.push_back({"RAND + deterministic L2",
                      WithL2(sim::RandLeon3Config(), false)});
  variants.push_back({"RAND + randomized L2",
                      WithL2(sim::RandLeon3Config(), true)});
  {
    auto with_refresh = sim::RandLeon3Config();
    with_refresh.dram.refresh_interval = 7800;
    with_refresh.dram.refresh_duration = 128;
    variants.push_back({"RAND + DRAM refresh", with_refresh});
  }

  TextTable table({"platform", "mean", "stddev", "max", "iid @5%",
                   "pWCET@1e-12"});
  for (const auto& v : variants) {
    const auto samples =
        analysis::RunCampaign(analysis::Workload(app, cfg), {v.config})
            .samples;
    const auto times = analysis::ExtractTimes(samples);
    const auto s = stats::Summarize(times);
    mbpta::MbptaOptions opts;
    opts.require_iid = false;
    const auto est = mbpta::AnalyzeSample(times, opts);
    table.AddRow({v.name, FormatF(s.mean, 0), FormatF(s.stddev, 1),
                  FormatF(s.max, 0),
                  est.iid.Passed() ? "pass" : "REJECTED",
                  est.curve ? FormatF(est.PwcetAt(1e-12), 0) : "-"});
  }
  table.Render(std::cout);
  std::printf(
      "\nexpected shape: both L2 variants cut the mean well below the "
      "no-L2 platform; the randomized L2 remains i.i.d.-admissible; "
      "refresh shifts the mean slightly and widens the distribution "
      "without breaking the analysis.\n");
  return 0;
}
