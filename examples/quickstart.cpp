// Quickstart: measure a workload on the time-randomized platform and derive
// a pWCET with MBPTA — the library's core loop in ~60 lines.
//
//   1. Build a workload (here: a FIR filter kernel written in the IR).
//   2. Interpret it to get its dynamic trace.
//   3. Run the trace N times on the MBPTA-compliant (RAND) platform, with a
//      fresh randomization seed per run.
//   4. Feed the execution times to the MBPTA pipeline: i.i.d. gate, block
//      maxima, Gumbel fit, pWCET curve.

#include <cstdio>
#include <iostream>

#include "analysis/campaign.hpp"
#include "apps/kernels.hpp"
#include "mbpta/mbpta.hpp"
#include "mbpta/report.hpp"
#include "sim/platform.hpp"
#include "trace/interpreter.hpp"

int main() {
  using namespace spta;

  // 1. A 32-tap, 2048-sample FIR filter kernel. The ~17KB input buffer
  //    exceeds the 16KB DL1, so cache behaviour (and hence timing) depends
  //    on the randomized placement/replacement — the jitter MBPTA models.
  constexpr int kTaps = 32;
  constexpr int kSamples = 2048;
  const trace::Program program = apps::MakeFirProgram(kTaps, kSamples);
  trace::Interpreter interp(program);
  for (int k = 0; k < kTaps; ++k) {
    interp.WriteFp(0, static_cast<std::size_t>(k), 1.0 / kTaps);  // coef
  }
  for (int i = 0; i < kSamples + kTaps; ++i) {
    interp.WriteFp(1, static_cast<std::size_t>(i),
                   0.5 + 0.25 * static_cast<double>(i % 7));  // input
  }

  // 2. Dynamic trace.
  const trace::Trace t = interp.Run();
  std::printf("trace: %zu instructions\n", t.instruction_count());

  // 3. 1000 measurement runs on the RAND platform (new seed per run).
  const auto samples =
      analysis::RunCampaign(
          analysis::Workload(t, /*runs=*/1000, /*master_seed=*/2024),
          {sim::RandLeon3Config()})
          .samples;
  const auto times = analysis::ExtractTimes(samples);

  // 4. MBPTA.
  const mbpta::MbptaResult result = mbpta::AnalyzeSample(times);
  std::cout << mbpta::RenderReport(result, "FIR kernel on RAND platform");

  if (!result.usable) {
    std::cout << "analysis not usable -- inspect the i.i.d. gate\n";
    return 1;
  }
  std::printf("pWCET at 1e-12 exceedance: %.0f cycles\n",
              result.PwcetAt(1e-12));
  return 0;
}
