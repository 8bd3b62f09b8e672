// Analyzing your own workload: write a program against the IR, run a
// campaign, inspect the full diagnostics (GEV shape check, chi-square GOF,
// convergence) — the checklist a certification argument would cite.

#include <cstdio>
#include <iostream>

#include "analysis/campaign.hpp"
#include "mbpta/convergence.hpp"
#include "mbpta/mbpta.hpp"
#include "mbpta/report.hpp"
#include "sim/platform.hpp"
#include "trace/interpreter.hpp"
#include "trace/program.hpp"

namespace {

// A custom workload: table-driven state machine over a message buffer,
// with a FP post-processing stage — written directly against the IR.
spta::trace::Program MakeCustomProgram() {
  using namespace spta::trace;
  ProgramBuilder b("custom-protocol-handler");
  const auto table = b.AddIntArray("transition_table", 512);
  const auto msg = b.AddIntArray("message", 256);
  const auto weights = b.AddFpArray("weights", 64);

  const auto entry = b.NewBlock();
  const auto loop = b.NewBlock();
  const auto body = b.NewBlock();
  const auto post = b.NewBlock();
  const auto post_loop = b.NewBlock();
  const auto post_body = b.NewBlock();
  const auto exit = b.NewBlock();

  b.SetEntry(entry);
  b.SwitchTo(entry);
  b.IConst(1, 0);    // i
  b.IConst(4, 256);  // message length
  b.IConst(20, 0);   // state
  b.IConst(11, 511); // table mask
  b.Jump(loop);

  b.SwitchTo(loop);
  b.ICmpLt(6, 1, 4);
  b.BranchIfZero(6, post, body);

  b.SwitchTo(body);
  b.LoadI(7, msg, 1);        // symbol
  b.IShl(8, 20, 1);          // state*2
  b.IAdd(8, 8, 7);           // state*2 + symbol
  b.IAnd(8, 8, 11);          // clamp into the table
  b.LoadI(20, table, 8);     // state = table[...]
  b.IAddImm(1, 1, 1);
  b.Jump(loop);

  b.SwitchTo(post);
  b.IConst(1, 0);
  b.IConst(4, 64);
  b.FConst(1, 0.0);
  b.Jump(post_loop);

  b.SwitchTo(post_loop);
  b.ICmpLt(6, 1, 4);
  b.BranchIfZero(6, exit, post_body);

  b.SwitchTo(post_body);
  b.LoadF(2, weights, 1);
  b.FMul(3, 2, 2);
  b.FAdd(1, 1, 3);
  b.IAddImm(1, 1, 1);
  b.Jump(post_loop);

  b.SwitchTo(exit);
  b.FSqrt(2, 1);  // energy norm
  b.Halt();
  return b.Build();
}

}  // namespace

int main() {
  using namespace spta;

  const trace::Program prog = MakeCustomProgram();
  trace::Interpreter interp(prog);
  for (int i = 0; i < 512; ++i) {
    interp.WriteInt(0, static_cast<std::size_t>(i), (i * 7 + 3) % 256);
  }
  for (int i = 0; i < 256; ++i) {
    interp.WriteInt(1, static_cast<std::size_t>(i), (i * 31) % 2);
  }
  for (int i = 0; i < 64; ++i) {
    interp.WriteFp(2, static_cast<std::size_t>(i), 0.1 * (i % 11));
  }
  const trace::Trace t = interp.Run();
  std::printf("custom kernel: %zu instructions, path signature %llx\n",
              t.instruction_count(),
              static_cast<unsigned long long>(t.path_signature));

  const auto samples = analysis::RunCampaign(analysis::Workload(t, 2000, 1234),
                                             {sim::RandLeon3Config()})
                           .samples;
  const auto times = analysis::ExtractTimes(samples);

  const auto result = mbpta::AnalyzeSample(times);
  std::cout << mbpta::RenderReport(result, "custom protocol handler");

  // Convergence: how many runs were actually needed?
  const auto conv = mbpta::CheckConvergence(times);
  std::printf("convergence: %s at %zu runs\n",
              conv.converged ? "reached" : "NOT reached",
              conv.runs_required);
  for (const auto& pt : conv.points) {
    std::printf("  n=%5zu  pWCET@1e-12=%.0f  delta=%.4f\n", pt.runs,
                pt.pwcet, pt.rel_delta);
  }
  return result.usable ? 0 : 1;
}
