// Demonstrates WHY the platform is randomized: on a deterministic cache,
// execution time depends on the memory layout the linker happened to pick,
// and no amount of re-running the same binary reveals other layouts. Random
// placement makes every run sample a new mapping, so the measured
// distribution covers what deterministic runs cannot.
//
// We sweep the link offset of a looping kernel (shifting where its arrays
// land in memory) and compare:
//   * DET: execution time per layout (varies across layouts, constant
//     within a layout),
//   * RAND: execution time distribution (identical regardless of layout).

#include <cstdio>
#include <vector>

#include "analysis/campaign.hpp"
#include "apps/kernels.hpp"
#include "sim/platform.hpp"
#include "stats/descriptive.hpp"
#include "trace/interpreter.hpp"

namespace {

spta::trace::Trace MakeTrace(std::uint64_t link_offset) {
  using namespace spta;
  const trace::Program prog = apps::MakeMatMulProgram(14, link_offset);
  trace::Interpreter interp(prog);
  for (int i = 0; i < 14 * 14; ++i) {
    interp.WriteFp(0, static_cast<std::size_t>(i), 0.25 + 0.01 * (i % 9));
    interp.WriteFp(1, static_cast<std::size_t>(i), 0.75 - 0.02 * (i % 5));
  }
  return interp.Run();
}

}  // namespace

int main() {
  using namespace spta;

  const std::vector<std::uint64_t> offsets = {0,    1024,  4096, 8192,
                                              12288, 16384, 20480, 24576};

  std::printf("%-12s %-14s %-14s %-14s\n", "link offset", "DET cycles",
              "RAND mean", "RAND max");
  double det_min = 1e300;
  double det_max = 0.0;
  for (const auto off : offsets) {
    const trace::Trace t = MakeTrace(off);

    const auto det_runs = analysis::RunCampaign(analysis::Workload(t, 5, 99),
                                                {sim::DetLeon3Config()})
                              .samples;
    const auto det_times = analysis::ExtractTimes(det_runs);
    // Deterministic platform: all runs of one layout are identical.
    det_min = std::min(det_min, det_times[0]);
    det_max = std::max(det_max, det_times[0]);

    const auto rnd_runs = analysis::RunCampaign(analysis::Workload(t, 200, 99),
                                                {sim::RandLeon3Config()})
                              .samples;
    const auto rnd_times = analysis::ExtractTimes(rnd_runs);

    std::printf("%-12llu %-14.0f %-14.0f %-14.0f\n",
                static_cast<unsigned long long>(off), det_times[0],
                stats::Mean(rnd_times), stats::Max(rnd_times));
  }
  std::printf(
      "\nDET spread across layouts: %.1f%% (invisible to re-runs of one "
      "binary)\n",
      100.0 * (det_max - det_min) / det_min);
  std::printf(
      "RAND samples a fresh mapping every run, layout is irrelevant.\n");
  return 0;
}
