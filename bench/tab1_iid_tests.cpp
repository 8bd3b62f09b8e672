// T1 — the paper's in-text i.i.d. numbers (Section III):
//   "We test independence with the Ljung-Box test ... For identical
//    distribution we use the two-sample Kolmogorov-Smirnov test ... We
//    obtained 0.83 and 0.45 ... both tests are passed, enabling MBPTA."
//
// Regenerates: Ljung-Box and KS p-values for the 3,000-run TVCA sample on
// the RAND platform — pooled and per path — plus the same tests on the DET
// platform (where the protocol's guarantees do not rest on randomization).

#include <cstdio>
#include <iostream>
#include <map>

#include "analysis/campaign.hpp"
#include "apps/tvca.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "mbpta/iid_gate.hpp"
#include "sim/platform.hpp"

int main() {
  using namespace spta;
  bench::Banner("tab1_iid_tests", "Section III i.i.d. test values",
                "Ljung-Box p=0.83, two-sample KS p=0.45; both >= 0.05, "
                "i.i.d. not rejected on the randomized platform");

  const apps::TvcaApp app;
  analysis::CampaignConfig cfg;
  cfg.runs = bench::RunCount(3000);

  TextTable table({"platform", "sample", "runs", "Ljung-Box p", "KS p",
                   "i.i.d. @5%"});

  const auto analyze = [&](const char* platform_name,
                           const sim::PlatformConfig& pc) {
    const auto samples =
        analysis::RunCampaign(analysis::Workload(app, cfg), {pc}).samples;
    const auto times = analysis::ExtractTimes(samples);
    const auto gate = mbpta::RunIidGate(times);
    table.AddRow({platform_name, "pooled", std::to_string(times.size()),
                  FormatF(gate.independence.p_value, 3),
                  FormatF(gate.identical_distribution.p_value, 3),
                  gate.Passed() ? "pass" : "REJECTED"});
    // Per-path gates (the form the per-path analysis actually relies on).
    std::map<std::uint32_t, std::vector<double>> by_path;
    for (const auto& s : samples) by_path[s.path_id].push_back(s.cycles);
    for (const auto& [path, path_times] : by_path) {
      if (path_times.size() < 100) continue;
      const auto g = mbpta::RunIidGate(path_times);
      table.AddRow({platform_name, "path " + std::to_string(path),
                    std::to_string(path_times.size()),
                    FormatF(g.independence.p_value, 3),
                    FormatF(g.identical_distribution.p_value, 3),
                    g.Passed() ? "pass" : "REJECTED"});
    }
  };

  analyze("RAND", sim::RandLeon3Config());
  analyze("DET", sim::DetLeon3Config());

  table.Render(std::cout);
  std::printf(
      "\npaper reference: RAND pooled Ljung-Box 0.83, KS 0.45 (both pass).\n"
      "expected shape: the pooled RAND rows pass at 5%%; with many per-path "
      "rows, ~5%% false rejections are statistically expected (the MBPTA "
      "process re-collects when a gate trips).\n");
  return 0;
}
