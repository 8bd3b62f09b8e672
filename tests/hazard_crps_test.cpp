// Tests for the load-use hazard model, the trace register-operand
// annotations, the CRPS metric and the payload application.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/payload.hpp"
#include "evt/crps.hpp"
#include "evt/gumbel.hpp"
#include "prng/xoshiro.hpp"
#include "sim/core.hpp"
#include "sim/memory_system.hpp"
#include "sim/platform.hpp"
#include "trace/interpreter.hpp"
#include "trace/program.hpp"

namespace spta {
namespace {

// --- register annotations ----------------------------------------------------

TEST(RegAnnotationTest, InterpreterFillsLoadAndAluRegs) {
  trace::ProgramBuilder b("regs");
  const auto arr = b.AddIntArray("a", 4);
  const auto blk = b.NewBlock();
  b.SetEntry(blk);
  b.SwitchTo(blk);
  b.IConst(1, 2);      // r1 = 2
  b.LoadI(5, arr, 1);  // r5 = a[r1]
  b.IAdd(6, 5, 1);     // r6 = r5 + r1  (consumes the load)
  b.FConst(2, 1.5);    // f2
  b.FSqrt(3, 2);       // f3 = sqrt(f2)
  b.Halt();
  const auto p = b.Build();
  trace::Interpreter interp(p);
  const auto t = interp.Run();

  EXPECT_EQ(t.records[0].dst_reg, 1);  // IConst r1
  EXPECT_EQ(t.records[1].dst_reg, 5);  // LoadI dst
  EXPECT_EQ(t.records[1].src1_reg, 1);
  EXPECT_TRUE(t.records[2].Reads(5));  // IAdd reads r5
  // FP registers carry the file flag, so f3 != integer r3.
  EXPECT_EQ(t.records[4].dst_reg, 3 | trace::kFpRegFlag);
  EXPECT_TRUE(t.records[4].Reads(2 | trace::kFpRegFlag));
  EXPECT_FALSE(t.records[4].Reads(2));  // integer r2 is a different name
}

TEST(RegAnnotationTest, NoRegNeverMatches) {
  trace::TraceRecord rec;
  EXPECT_FALSE(rec.Reads(trace::kNoReg));
  rec.src1_reg = 3;
  EXPECT_TRUE(rec.Reads(3));
  EXPECT_FALSE(rec.Reads(trace::kNoReg));
}

// --- load-use hazard ---------------------------------------------------------

trace::Trace LoadThenAlu(bool dependent) {
  trace::Trace t;
  trace::TraceRecord load;
  load.pc = 0x40000000;
  load.op = trace::OpClass::kLoad;
  load.mem_addr = 0x40100000;
  load.dst_reg = 5;
  t.records.push_back(load);
  trace::TraceRecord alu;
  alu.pc = 0x40000004;
  alu.op = trace::OpClass::kIntAlu;
  alu.src1_reg = dependent ? 5 : 6;
  alu.dst_reg = 7;
  t.records.push_back(alu);
  return t;
}

TEST(LoadUseHazardTest, DependentConsumerStallsOneCycle) {
  const auto cfg = sim::DetLeon3Config();
  sim::MemorySystem mem_a(cfg.bus, cfg.dram);
  sim::Core core_a(cfg, 0, &mem_a, 1);
  const auto dep = core_a.Run(LoadThenAlu(true));
  sim::MemorySystem mem_b(cfg.bus, cfg.dram);
  sim::Core core_b(cfg, 0, &mem_b, 1);
  const auto indep = core_b.Run(LoadThenAlu(false));
  EXPECT_EQ(dep.cycles, indep.cycles + cfg.pipeline.load_use_stall);
}

TEST(LoadUseHazardTest, StallOnlyImmediatelyAfterLoad) {
  // load ; independent alu ; dependent alu -> no stall (result arrived).
  auto t = LoadThenAlu(false);
  trace::TraceRecord consumer;
  consumer.pc = 0x40000008;
  consumer.op = trace::OpClass::kIntAlu;
  consumer.src1_reg = 5;
  t.records.push_back(consumer);
  const auto cfg = sim::DetLeon3Config();
  sim::MemorySystem mem(cfg.bus, cfg.dram);
  sim::Core core(cfg, 0, &mem, 1);
  const auto res = core.Run(t);
  // = independent 2-instruction time + 1 more ALU cycle, no stall.
  sim::MemorySystem mem2(cfg.bus, cfg.dram);
  sim::Core core2(cfg, 0, &mem2, 1);
  const auto base = core2.Run(LoadThenAlu(false));
  EXPECT_EQ(res.cycles, base.cycles + cfg.pipeline.int_alu);
}

TEST(LoadUseHazardTest, VisibleInEndToEndProgramTiming) {
  // Two IR programs: load feeding the next op vs load feeding a later op.
  const auto build = [](bool dependent) {
    trace::ProgramBuilder b(dependent ? "dep" : "indep");
    const auto arr = b.AddIntArray("a", 8);
    const auto blk = b.NewBlock();
    b.SetEntry(blk);
    b.SwitchTo(blk);
    b.IConst(1, 0);
    b.LoadI(5, arr, 1);
    if (dependent) {
      b.IAddImm(6, 5, 1);  // consumes the load immediately
      b.IConst(7, 9);
    } else {
      b.IConst(7, 9);      // filler first
      b.IAddImm(6, 5, 1);
    }
    b.Halt();
    return b.Build();
  };
  const auto p_dep = build(true);
  const auto p_indep = build(false);
  trace::Interpreter ia(p_dep);
  trace::Interpreter ib(p_indep);
  sim::Platform platform(sim::DetLeon3Config(), 1);
  const auto dep_cycles = platform.Run(ia.Run(), 1).cycles;
  const auto indep_cycles = platform.Run(ib.Run(), 1).cycles;
  EXPECT_EQ(dep_cycles, indep_cycles + 1);
}

// --- CRPS ---------------------------------------------------------------------

TEST(CrpsTest, TrueModelBeatsWrongModels) {
  prng::Xoshiro128pp rng(5);
  const evt::GumbelDist truth{100.0, 5.0};
  std::vector<double> xs(3000);
  for (auto& x : xs) {
    x = truth.Quantile(std::max(rng.UniformUnit(), 1e-12));
  }
  const double crps_true = evt::CrpsGumbel(truth, xs);
  const double crps_shifted = evt::CrpsGumbel({110.0, 5.0}, xs);
  const double crps_wide = evt::CrpsGumbel({100.0, 15.0}, xs);
  EXPECT_LT(crps_true, crps_shifted);
  EXPECT_LT(crps_true, crps_wide);
}

TEST(CrpsTest, PerfectPointForecastNearZero) {
  // A nearly-degenerate forecast centered on the data has tiny CRPS.
  const std::vector<double> xs(100, 50.0);
  const double crps = evt::CrpsGumbel({50.0, 1e-3}, xs);
  EXPECT_NEAR(crps, 0.0, 1e-2);
}

TEST(CrpsTest, ScalesWithScale) {
  // CRPS of the true model grows linearly with the scale parameter.
  prng::Xoshiro128pp rng(6);
  for (const double beta : {2.0, 4.0}) {
    const evt::GumbelDist d{0.0, beta};
    std::vector<double> xs(2000);
    for (auto& x : xs) x = d.Quantile(std::max(rng.UniformUnit(), 1e-12));
    const double crps = evt::CrpsGumbel(d, xs);
    EXPECT_NEAR(crps / beta, 0.72, 0.1);  // ~ (gamma - ln... ) * const
  }
}

// --- payload app ---------------------------------------------------------------

TEST(PayloadAppTest, FrameDeterministicAndNonTrivial) {
  const apps::PayloadApp app;
  const auto a = app.BuildFrame(7);
  const auto b = app.BuildFrame(7);
  ASSERT_EQ(a.records.size(), b.records.size());
  EXPECT_GT(a.instruction_count(), 50000u);
  const auto c = app.BuildFrame(8);
  EXPECT_NE(a.records.size(), c.records.size());  // input-dependent paths
}

TEST(PayloadAppTest, StaysInsideItsPartition) {
  const apps::PayloadApp app;
  const auto frame = app.BuildFrame(3);
  for (const auto& r : frame.records) {
    EXPECT_GE(r.pc, 0x70000000u);
    if (r.mem_addr != 0) {
      EXPECT_GE(r.mem_addr, 0x70000000u);
    }
  }
}

TEST(PayloadAppTest, RunsOnPlatform) {
  const apps::PayloadApp app;
  const auto frame = app.BuildFrame(4);
  sim::Platform platform(sim::RandLeon3Config(), 2);
  const auto res = platform.Run(frame, 9);
  EXPECT_GT(res.cycles, frame.instruction_count());
}

}  // namespace
}  // namespace spta
