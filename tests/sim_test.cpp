// Tests for the non-cache simulator components: TLB, FPU, bus, DRAM, store
// buffer, core timing and the platform measurement protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "apps/tvca.hpp"
#include "common/hash.hpp"
#include "prng/xoshiro.hpp"
#include "sim/bus.hpp"
#include "sim/core.hpp"
#include "sim/dram.hpp"
#include "sim/fpu.hpp"
#include "sim/memory_system.hpp"
#include "sim/platform.hpp"
#include "sim/store_buffer.hpp"
#include "sim/tlb.hpp"
#include "trace/interpreter.hpp"
#include "trace/program.hpp"
#include "trace/synthetic.hpp"

namespace spta::sim {
namespace {

// --- TLB -------------------------------------------------------------------

TEST(TlbTest, MissThenHitSamePage) {
  Tlb tlb(TlbConfig{4, 4096, Replacement::kLru, 30}, 1);
  EXPECT_FALSE(tlb.Access(0x1000));
  EXPECT_TRUE(tlb.Access(0x1fff));
  EXPECT_FALSE(tlb.Access(0x2000));
}

TEST(TlbTest, LruEvictionOrder) {
  Tlb tlb(TlbConfig{2, 4096, Replacement::kLru, 30}, 1);
  tlb.Access(0x0000);   // page 0
  tlb.Access(0x1000);   // page 1
  tlb.Access(0x0000);   // page 0 now MRU
  tlb.Access(0x2000);   // evicts page 1
  EXPECT_TRUE(tlb.Access(0x0000));
  EXPECT_FALSE(tlb.Access(0x1000));
}

TEST(TlbTest, CapacityHolds64Pages) {
  Tlb tlb(TlbConfig{64, 4096, Replacement::kLru, 30}, 1);
  for (Address p = 0; p < 64; ++p) tlb.Access(p * 4096);
  for (Address p = 0; p < 64; ++p) {
    EXPECT_TRUE(tlb.Access(p * 4096)) << "page " << p;
  }
}

TEST(TlbTest, RandomReplacementSeedDeterministic) {
  const auto run = [](Seed s) {
    Tlb tlb(TlbConfig{4, 4096, Replacement::kRandom, 30}, s);
    std::uint64_t misses = 0;
    for (int i = 0; i < 500; ++i) {
      misses += !tlb.Access(static_cast<Address>(i % 6) * 4096);
    }
    return misses;
  };
  EXPECT_EQ(run(5), run(5));
  std::set<std::uint64_t> distinct;
  for (Seed s = 0; s < 8; ++s) distinct.insert(run(s));
  EXPECT_GT(distinct.size(), 2u);
}

TEST(TlbTest, FlushAndReseed) {
  Tlb tlb(TlbConfig{8, 4096, Replacement::kRandom, 30}, 1);
  tlb.Access(0x5000);
  tlb.Flush();
  EXPECT_FALSE(tlb.Access(0x5000));
  tlb.Reseed(99);
  EXPECT_FALSE(tlb.Access(0x5000));
}

// --- FPU -------------------------------------------------------------------

TEST(FpuTest, FixedLatencyOpsAreJitterless) {
  FpuConfig cfg;
  cfg.mode = FpuMode::kVariable;
  Fpu fpu(cfg);
  for (std::uint8_t cls = 0; cls < trace::kFpuOperandClasses; ++cls) {
    EXPECT_EQ(fpu.Latency(trace::OpClass::kFpAdd, cls), cfg.add_latency);
    EXPECT_EQ(fpu.Latency(trace::OpClass::kFpMul, cls), cfg.mul_latency);
  }
}

TEST(FpuTest, VariableModeDependsOnOperandClass) {
  FpuConfig cfg;
  cfg.mode = FpuMode::kVariable;
  Fpu fpu(cfg);
  const Cycles lat0 = fpu.Latency(trace::OpClass::kFpDiv, 0);
  const Cycles lat3 = fpu.Latency(trace::OpClass::kFpDiv, 3);
  EXPECT_LT(lat0, lat3);
  EXPECT_EQ(lat0, cfg.div_base);
  EXPECT_EQ(lat3, cfg.div_base + 3 * cfg.div_step);
}

TEST(FpuTest, WorstCaseModeChargesMaximumAlways) {
  FpuConfig cfg;
  cfg.mode = FpuMode::kWorstCaseFixed;
  Fpu fpu(cfg);
  const Cycles worst = fpu.WorstCaseLatency(trace::OpClass::kFpDiv);
  for (std::uint8_t cls = 0; cls < trace::kFpuOperandClasses; ++cls) {
    EXPECT_EQ(fpu.Latency(trace::OpClass::kFpDiv, cls), worst);
    EXPECT_EQ(fpu.Latency(trace::OpClass::kFpSqrt, cls),
              fpu.WorstCaseLatency(trace::OpClass::kFpSqrt));
  }
}

TEST(FpuTest, WorstCaseUpperBoundsVariable) {
  // The MBPTA argument: analysis-phase latency >= any operation latency.
  FpuConfig cfg;
  cfg.mode = FpuMode::kVariable;
  Fpu variable(cfg);
  cfg.mode = FpuMode::kWorstCaseFixed;
  Fpu fixed(cfg);
  for (auto op : {trace::OpClass::kFpDiv, trace::OpClass::kFpSqrt}) {
    for (std::uint8_t cls = 0; cls < trace::kFpuOperandClasses; ++cls) {
      EXPECT_LE(variable.Latency(op, cls), fixed.Latency(op, cls));
    }
  }
}

TEST(FpuTest, StatsAccumulate) {
  Fpu fpu(FpuConfig{});
  fpu.Latency(trace::OpClass::kFpAdd, 0);
  fpu.Latency(trace::OpClass::kFpMul, 0);
  EXPECT_EQ(fpu.stats().operations, 2u);
  EXPECT_GT(fpu.stats().total_cycles, 0u);
}

// --- Bus -------------------------------------------------------------------

TEST(BusTest, GrantsImmediatelyWhenFree) {
  Bus bus(BusConfig{});
  EXPECT_EQ(bus.Acquire(0, 100, 10), 100u);
  EXPECT_EQ(bus.free_at(), 110u);
}

TEST(BusTest, SerializesOverlappingRequests) {
  Bus bus(BusConfig{});
  bus.Acquire(0, 100, 10);
  EXPECT_EQ(bus.Acquire(1, 105, 10), 110u);  // waits for the bus
  EXPECT_EQ(bus.stats().wait_cycles, 5u);
  EXPECT_EQ(bus.stats().transactions, 2u);
}

TEST(BusTest, NoWaitAfterIdleGap) {
  Bus bus(BusConfig{});
  bus.Acquire(0, 0, 10);
  EXPECT_EQ(bus.Acquire(1, 50, 10), 50u);
  EXPECT_EQ(bus.stats().wait_cycles, 0u);
}

TEST(BusTest, ResetClearsHorizon) {
  Bus bus(BusConfig{});
  bus.Acquire(0, 0, 100);
  bus.Reset();
  EXPECT_EQ(bus.Acquire(0, 0, 1), 0u);
}

// --- DRAM ------------------------------------------------------------------

TEST(DramTest, RowHitAfterRowMiss) {
  Dram dram(DramConfig{});
  const Cycles first = dram.AccessLatency(0x10000);
  const Cycles second = dram.AccessLatency(0x10010);  // same row
  EXPECT_EQ(first, dram.config().row_miss_latency);
  EXPECT_EQ(second, dram.config().row_hit_latency);
  EXPECT_EQ(dram.stats().row_hits, 1u);
}

TEST(DramTest, DifferentBanksIndependentRows) {
  Dram dram(DramConfig{});
  const Address bank0_row0 = 0;
  const Address bank1_row0 = dram.config().row_bytes;  // next bank
  ASSERT_NE(dram.BankOf(bank0_row0), dram.BankOf(bank1_row0));
  dram.AccessLatency(bank0_row0);
  dram.AccessLatency(bank1_row0);
  // Both rows stay open.
  EXPECT_EQ(dram.AccessLatency(bank0_row0 + 8),
            dram.config().row_hit_latency);
  EXPECT_EQ(dram.AccessLatency(bank1_row0 + 8),
            dram.config().row_hit_latency);
}

TEST(DramTest, RowConflictReopens) {
  Dram dram(DramConfig{});
  const Address row0 = 0;
  const Address row1 =
      static_cast<Address>(dram.config().row_bytes) * dram.config().banks;
  ASSERT_EQ(dram.BankOf(row0), dram.BankOf(row1));
  ASSERT_NE(dram.RowOf(row0), dram.RowOf(row1));
  dram.AccessLatency(row0);
  EXPECT_EQ(dram.AccessLatency(row1), dram.config().row_miss_latency);
  EXPECT_EQ(dram.AccessLatency(row0), dram.config().row_miss_latency);
}

TEST(DramTest, ResetClosesRows) {
  Dram dram(DramConfig{});
  dram.AccessLatency(0);
  dram.Reset();
  EXPECT_EQ(dram.AccessLatency(0), dram.config().row_miss_latency);
}

// --- L2 + refresh -------------------------------------------------------------

TEST(L2Test, SecondFillHitsInL2) {
  L2Config l2;
  l2.enabled = true;
  MemorySystem mem(BusConfig{}, DramConfig{}, l2, 1);
  const Cycles first = mem.LineFill(0, 0x1000, 0) - 0;
  // Same line again (as if the L1 evicted it): now an L2 hit, much faster.
  const Cycles t1 = mem.LineFill(0, 0x1000, 10000);
  const Cycles second = t1 - 10000;
  EXPECT_LT(second, first);
  EXPECT_EQ(second, l2.hit_latency + BusConfig{}.line_transfer_cycles);
}

TEST(L2Test, StoreDoesNotAllocate) {
  L2Config l2;
  l2.enabled = true;
  MemorySystem mem(BusConfig{}, DramConfig{}, l2, 1);
  mem.Store(0, 0x2000, 0);
  // A later fill of the stored line must still go to DRAM (no allocation).
  const Cycles fill = mem.LineFill(0, 0x2000, 10000) - 10000;
  EXPECT_GT(fill, l2.hit_latency + BusConfig{}.line_transfer_cycles);
}

TEST(L2Test, ResetFlushesAndStatsExposed) {
  L2Config l2;
  l2.enabled = true;
  MemorySystem mem(BusConfig{}, DramConfig{}, l2, 1);
  mem.LineFill(0, 0x3000, 0);
  ASSERT_NE(mem.l2(), nullptr);
  EXPECT_EQ(mem.l2()->stats().misses, 1u);
  mem.Reset(99);
  EXPECT_EQ(mem.l2()->stats().accesses, 0u);
  const Cycles fill = mem.LineFill(0, 0x3000, 0) - 0;
  EXPECT_GT(fill, l2.hit_latency + BusConfig{}.line_transfer_cycles);
}

TEST(L2Test, DisabledByDefault) {
  MemorySystem mem(BusConfig{}, DramConfig{});
  EXPECT_EQ(mem.l2(), nullptr);
}

TEST(DramRefreshTest, AccessInsideWindowStalls) {
  DramConfig cfg;
  cfg.refresh_interval = 1000;
  cfg.refresh_duration = 100;
  Dram dram(cfg);
  // At phase 40 the refresh (0..100) is in progress: wait 60 extra.
  const Cycles stalled = dram.AccessLatency(0, 1040);
  EXPECT_EQ(stalled, 60 + cfg.row_miss_latency);
  EXPECT_EQ(dram.stats().refresh_stall_cycles, 60u);
  // Outside the window: no stall.
  dram.Reset();
  EXPECT_EQ(dram.AccessLatency(0, 1500), cfg.row_miss_latency);
}

TEST(DramRefreshTest, DisabledByDefault) {
  Dram dram(DramConfig{});
  EXPECT_EQ(dram.AccessLatency(0, 5), DramConfig{}.row_miss_latency);
  EXPECT_EQ(dram.stats().refresh_stall_cycles, 0u);
}

TEST(L2Test, PlatformWithRandomizedL2StillSeedDeterministic) {
  auto cfg = RandLeon3Config();
  cfg.l2.enabled = true;
  cfg.l2.cache.placement = Placement::kRandomModulo;
  cfg.l2.cache.replacement = Replacement::kRandom;
  const trace::Trace t = trace::BlendTrace({}, 21);
  Platform p(cfg, 1);
  EXPECT_EQ(p.Run(t, 5).cycles, p.Run(t, 5).cycles);
  EXPECT_NE(p.Run(t, 5).cycles, 0u);
}

// --- Store buffer ------------------------------------------------------------

TEST(StoreBufferTest, NoStallWhileNotFull) {
  StoreBuffer sb(StoreBufferConfig{4});
  Cycles now = 100;
  for (int i = 0; i < 4; ++i) {
    now = sb.Push(now, [](Cycles ready) { return ready + 50; });
    EXPECT_EQ(now, 100u);  // never stalled
  }
  EXPECT_EQ(sb.stats().full_stalls, 0u);
  EXPECT_EQ(sb.in_flight(), 4u);
}

TEST(StoreBufferTest, StallsWhenFull) {
  StoreBuffer sb(StoreBufferConfig{2});
  Cycles now = 0;
  now = sb.Push(now, [](Cycles r) { return r + 100; });  // completes @100
  now = sb.Push(now, [](Cycles r) { return r + 100; });  // completes @200
  // Buffer full; third store waits until the first completes (t=100).
  now = sb.Push(now, [](Cycles r) { return r + 100; });
  EXPECT_EQ(now, 100u);
  EXPECT_EQ(sb.stats().full_stalls, 1u);
  EXPECT_EQ(sb.stats().stall_cycles, 100u);
}

TEST(StoreBufferTest, FifoDrainOrderSerializes) {
  StoreBuffer sb(StoreBufferConfig{8});
  std::vector<Cycles> starts;
  Cycles now = 0;
  for (int i = 0; i < 3; ++i) {
    now = sb.Push(now, [&](Cycles r) {
      starts.push_back(r);
      return r + 10;
    });
  }
  EXPECT_EQ(starts[0], 0u);
  EXPECT_EQ(starts[1], 10u);  // waits for the previous drain
  EXPECT_EQ(starts[2], 20u);
}

TEST(StoreBufferTest, DrainAllWaitsForLastStore) {
  StoreBuffer sb(StoreBufferConfig{8});
  Cycles now = sb.Push(0, [](Cycles r) { return r + 75; });
  EXPECT_EQ(sb.DrainAll(now), 75u);
  EXPECT_EQ(sb.in_flight(), 0u);
}

// --- Core + platform ---------------------------------------------------------

TEST(CoreTest, PureAluTraceHasUnitCpiPlusFetchMisses) {
  PlatformConfig cfg = DetLeon3Config();
  MemorySystem mem(cfg.bus, cfg.dram);
  Core core(cfg, 0, &mem, 1);
  // 100 ALU instructions in a tight 2-line code loop: 1 ITLB miss, 1-2 IL1
  // misses, then 1 cycle each.
  trace::Trace t;
  for (int i = 0; i < 100; ++i) {
    trace::TraceRecord r;
    r.pc = 0x40000000 + 4 * (i % 8);
    r.op = trace::OpClass::kIntAlu;
    t.records.push_back(r);
  }
  const RunResult res = core.Run(t);
  EXPECT_EQ(res.instructions, 100u);
  EXPECT_EQ(res.itlb.misses, 1u);
  EXPECT_EQ(res.il1.misses, 1u);
  // 100 cycles execute + 1 TLB walk + 1 line fill.
  const Cycles fill = cfg.dram.row_miss_latency + cfg.bus.line_transfer_cycles;
  EXPECT_EQ(res.cycles, 100u + cfg.itlb.miss_penalty + fill);
}

TEST(CoreTest, TakenBranchPenaltyApplied) {
  PlatformConfig cfg = DetLeon3Config();
  MemorySystem mem(cfg.bus, cfg.dram);
  Core core(cfg, 0, &mem, 1);
  trace::Trace t;
  trace::TraceRecord r;
  r.pc = 0x40000000;
  r.op = trace::OpClass::kBranch;
  r.branch_taken = true;
  t.records.push_back(r);
  trace::TraceRecord r2 = r;
  r2.branch_taken = false;
  t.records.push_back(r2);
  const RunResult res = core.Run(t);
  // Both branches: 1 cycle each; +2 for the taken one; plus fetch overheads.
  const Cycles fill = cfg.dram.row_miss_latency + cfg.bus.line_transfer_cycles;
  EXPECT_EQ(res.cycles,
            2u + cfg.pipeline.taken_branch_penalty + cfg.itlb.miss_penalty +
                fill);
}

TEST(CoreTest, StoreGoesThroughStoreBufferNotStall) {
  PlatformConfig cfg = DetLeon3Config();
  MemorySystem mem(cfg.bus, cfg.dram);
  Core core(cfg, 0, &mem, 1);
  const trace::Trace t =
      trace::SequentialTrace(0x40100000, 4, 32, trace::OpClass::kStore);
  const RunResult res = core.Run(t);
  EXPECT_EQ(res.store_buffer.stores, 4u);
  EXPECT_EQ(res.store_buffer.full_stalls, 0u);
  EXPECT_EQ(res.dl1.misses, 4u);  // no-write-allocate: all misses, no fill
  // End time includes the store drain.
  EXPECT_GT(res.cycles, 4u);
}

TEST(PlatformTest, MemoryPathStatsExposedInResult) {
  trace::BlendSpec spec;
  spec.count = 5000;
  const trace::Trace t = trace::BlendTrace(spec, 31);
  Platform p(RandLeon3Config(), 1);
  const RunResult res = p.Run(t, 2);
  EXPECT_GT(res.bus.transactions, 0u);
  EXPECT_GT(res.bus.busy_cycles, 0u);
  EXPECT_GT(res.dram.accesses, 0u);
  EXPECT_LE(res.dram.row_hits, res.dram.accesses);
}

TEST(PlatformTest, RunIsDeterministicPerSeed) {
  const trace::Trace t = trace::BlendTrace({}, 3);
  Platform p(RandLeon3Config(), 1);
  const RunResult a = p.Run(t, 42);
  const RunResult b = p.Run(t, 42);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.dl1.misses, b.dl1.misses);
}

TEST(PlatformTest, RandVariesAcrossSeedsDetDoesNot) {
  trace::BlendSpec spec;
  spec.count = 30000;
  spec.data_bytes = 40 * 1024;  // larger than DL1: placement matters
  const trace::Trace t = trace::BlendTrace(spec, 4);

  Platform det(DetLeon3Config(), 1);
  std::set<Cycles> det_times;
  for (Seed s = 0; s < 6; ++s) det_times.insert(det.Run(t, s).cycles);
  EXPECT_EQ(det_times.size(), 1u) << "DET must ignore the seed";

  Platform rnd(RandLeon3Config(), 1);
  std::set<Cycles> rnd_times;
  for (Seed s = 0; s < 6; ++s) rnd_times.insert(rnd.Run(t, s).cycles);
  EXPECT_GT(rnd_times.size(), 1u) << "RAND must respond to the seed";
}

TEST(PlatformTest, PerRunStateIsolation) {
  // Running trace A then trace B must give B the same time as running B
  // alone: the reset protocol removes all cross-run state.
  const trace::Trace a = trace::BlendTrace({}, 5);
  const trace::Trace b = trace::BlendTrace({}, 6);
  Platform p(RandLeon3Config(), 1);
  p.Run(a, 3);
  const Cycles b_after_a = p.Run(b, 4).cycles;
  Platform fresh(RandLeon3Config(), 1);
  EXPECT_EQ(fresh.Run(b, 4).cycles, b_after_a);
}

TEST(PlatformTest, ConcurrentInterferenceSlowsVictim) {
  trace::BlendSpec spec;
  spec.count = 20000;
  spec.load_pm = 400;  // memory-heavy contenders
  const trace::Trace victim = trace::BlendTrace(spec, 7);
  trace::BlendSpec cspec = spec;
  cspec.data_base = 0x50000000;  // disjoint data
  const trace::Trace contender = trace::BlendTrace(cspec, 8);

  Platform p(RandLeon3Config(), 1);
  const std::vector<const trace::Trace*> alone = {&victim, nullptr, nullptr,
                                                  nullptr};
  const Cycles solo = p.RunConcurrent(alone, 9)[0].cycles;
  const std::vector<const trace::Trace*> loaded = {&victim, &contender,
                                                   &contender, &contender};
  const Cycles contended = p.RunConcurrent(loaded, 9)[0].cycles;
  EXPECT_GT(contended, solo);
}

TEST(PlatformTest, ConcurrentMatchesSingleWhenAlone) {
  const trace::Trace t = trace::BlendTrace({}, 10);
  Platform p(RandLeon3Config(), 1);
  const Cycles single = p.Run(t, 11).cycles;
  const std::vector<const trace::Trace*> slots = {&t, nullptr, nullptr,
                                                  nullptr};
  const Cycles concurrent = p.RunConcurrent(slots, 11)[0].cycles;
  EXPECT_EQ(single, concurrent);
}

// --- The retire loop: span lists, Step, deferred fetch hits --------------

/// Every RunResult field folded into one word.
std::uint64_t ResultDigest(const RunResult& r) {
  const std::uint64_t fields[] = {
      r.cycles, r.instructions, r.il1.accesses, r.il1.misses,
      r.dl1.accesses, r.dl1.misses, r.itlb.accesses, r.itlb.misses,
      r.dtlb.accesses, r.dtlb.misses, r.fpu.operations, r.fpu.total_cycles,
      r.store_buffer.stores, r.store_buffer.full_stalls,
      r.store_buffer.stall_cycles, r.store_buffer.high_water, r.prng.words,
      r.prng.rejections, r.bus.transactions, r.bus.busy_cycles,
      r.bus.wait_cycles, r.dram.accesses, r.dram.row_hits,
      r.dram.refresh_stall_cycles};
  std::uint64_t h = 0;
  for (const std::uint64_t f : fields) h = HashCombine(h, f);
  return h;
}

/// Cuts `records` into spans: random cuts, plus empty spans (at both ends
/// and in the middle), a cut between two records on one IL1 line and a
/// cut where the pc crosses an ITLB page.
std::vector<trace::RecordSpan> SplitSpans(
    const std::vector<trace::TraceRecord>& records,
    const PlatformConfig& config, std::uint64_t seed) {
  const std::size_t n = records.size();
  prng::Xoshiro128pp rng(seed);
  std::vector<std::size_t> cuts = {0, 0, n, n};
  for (int i = 0; i < 24; ++i) cuts.push_back(rng.UniformBelow(n + 1));
  const std::size_t middle = rng.UniformBelow(n + 1);
  cuts.insert(cuts.end(), {middle, middle});
  bool same_line = false;
  bool new_page = false;
  for (std::size_t i = 1; i < n && !(same_line && new_page); ++i) {
    const Address a = records[i - 1].pc;
    const Address b = records[i].pc;
    if (!same_line && a / config.il1.line_bytes == b / config.il1.line_bytes) {
      cuts.push_back(i);
      same_line = true;
    }
    if (!new_page && a / config.itlb.page_bytes != b / config.itlb.page_bytes) {
      cuts.push_back(i);
      new_page = true;
    }
  }
  EXPECT_TRUE(same_line && new_page);
  std::sort(cuts.begin(), cuts.end());
  std::vector<trace::RecordSpan> spans;
  for (std::size_t i = 1; i < cuts.size(); ++i) {
    spans.emplace_back(records.data() + cuts[i - 1], cuts[i] - cuts[i - 1]);
  }
  return spans;
}

struct NamedConfig {
  const char* name;
  PlatformConfig config;
};

std::vector<NamedConfig> RetireConfigs() {
  return {{"DET", DetLeon3Config()},
          {"RAND", RandLeon3Config()},
          {"RAND-operation", RandLeon3OperationConfig()}};
}

// A frame retired as a split span list, as one span and Step by Step (the
// RunConcurrent path with one busy core) gives one result, field for
// field; and every record is exactly one fetch, deferred or not.
TEST(RetireLoopTest, SplitSpansEqualOneSpanAndStepwise) {
  const apps::TvcaApp app;
  const trace::Trace frame = app.BuildFrame(42).trace;
  for (const auto& [name, config] : RetireConfigs()) {
    SCOPED_TRACE(name);
    Platform p(config, 1);
    for (Seed seed : {Seed{1}, Seed{2}}) {
      SCOPED_TRACE(seed);
      const RunResult whole = p.Run(frame, seed);
      EXPECT_EQ(whole.instructions, frame.records.size());
      EXPECT_EQ(whole.il1.accesses, whole.instructions);
      EXPECT_EQ(whole.itlb.accesses, whole.instructions);
      std::vector<trace::Segment> segments;
      for (const trace::RecordSpan span :
           SplitSpans(frame.records, config, seed)) {
        segments.push_back({span, nullptr});
      }
      const RunResult split = p.RunWithHook(segments, seed, {});
      EXPECT_EQ(ResultDigest(split), ResultDigest(whole));
      EXPECT_EQ(split.cycles, whole.cycles);
      EXPECT_EQ(split.il1.misses, whole.il1.misses);
      std::vector<const trace::Trace*> slots(config.cores, nullptr);
      slots[0] = &frame;
      const RunResult stepped = p.RunConcurrent(slots, seed)[0];
      EXPECT_EQ(ResultDigest(stepped), ResultDigest(whole));
      EXPECT_EQ(stepped.cycles, whole.cycles);
    }
  }
}

// The retire loop reproduces the per-record retire loop it replaced:
// every RunResult field of a TVCA frame run alone and of a four-core
// RunConcurrent (the Step path, with bus and DRAM interference), frozen
// from the earlier implementation.
TEST(RetireLoopTest, ResultsMatchThePerRecordLoop) {
  const apps::TvcaApp app;
  const trace::Trace frame = app.BuildFrame(42).trace;
  const trace::Trace sensor =
      app.BuildTaskTrace(apps::TvcaTask::kSensorAcq, 7);
  const trace::Trace actx = app.BuildTaskTrace(apps::TvcaTask::kActuatorX, 8);
  const trace::Trace acty = app.BuildTaskTrace(apps::TvcaTask::kActuatorY, 9);
  struct Golden {
    std::uint64_t run[2];         // Run, seeds 1 and 2
    std::uint64_t concurrent[4];  // RunConcurrent, seed 9, per core
  };
  const Golden goldens[] = {
      {{0xfed92e00091ad600ULL, 0xfed92e00091ad600ULL},
       {0xb386753959418829ULL, 0x8bd2053ebe394209ULL, 0x48f47a1e2de9ddcfULL,
        0xd1fe71445a513351ULL}},
      {{0x551a539f8f66a88fULL, 0x4dca686feb30a8e9ULL},
       {0xa85267232cbde5d7ULL, 0xa435b9ff6529573bULL, 0xa676648598712c13ULL,
        0x600307b69e88abd9ULL}},
      {{0x752bd01a32e6bf54ULL, 0x13e65a6f73e1b4c8ULL},
       {0x85f3956a7aed27b5ULL, 0xa435b9ff6529573bULL, 0xa676648598712c13ULL,
        0x600307b69e88abd9ULL}},
  };
  const auto configs = RetireConfigs();
  for (std::size_t c = 0; c < configs.size(); ++c) {
    SCOPED_TRACE(configs[c].name);
    Platform p(configs[c].config, 1);
    EXPECT_EQ(ResultDigest(p.Run(frame, 1)), goldens[c].run[0]);
    EXPECT_EQ(ResultDigest(p.Run(frame, 2)), goldens[c].run[1]);
    const std::vector<const trace::Trace*> slots = {&frame, &sensor, &actx,
                                                    &acty};
    const std::vector<RunResult> results = p.RunConcurrent(slots, 9);
    for (std::size_t core = 0; core < results.size(); ++core) {
      EXPECT_EQ(ResultDigest(results[core]), goldens[c].concurrent[core])
          << "core " << core;
    }
  }
}

/// The first scenario seed of each of the eight TVCA paths.
std::array<std::uint64_t, 8> FirstSeedPerPath(const apps::TvcaApp& app) {
  std::array<std::uint64_t, 8> seeds{};
  std::array<bool, 8> found{};
  std::size_t missing = 8;
  for (std::uint64_t seed = 0; missing > 0; ++seed) {
    const std::uint32_t path = app.DrawScenario(seed).PathId();
    if (!found[path]) {
      found[path] = true;
      seeds[path] = seed;
      --missing;
    }
  }
  return seeds;
}

/// A fault-injection hook flipping a few tag and VPN bits, the same ones
/// for a given run seed.
std::function<void(Platform&)> UpsetHook(Seed run_seed) {
  return [run_seed](Platform& p) {
    prng::Xoshiro128pp rng(run_seed);
    Core& core = p.core(0);
    for (int i = 0; i < 6; ++i) {
      const auto bit = rng.UniformBelow(64);
      switch (i % 4) {
        case 0:
          core.il1().CorruptTagBit(
              rng.UniformBelow(static_cast<std::uint32_t>(
                  core.il1().TagSlots())), bit);
          break;
        case 1:
          core.dl1().CorruptTagBit(
              rng.UniformBelow(static_cast<std::uint32_t>(
                  core.dl1().TagSlots())), bit);
          break;
        case 2:
          core.itlb().CorruptVpnBit(
              rng.UniformBelow(static_cast<std::uint32_t>(
                  core.itlb().EntrySlots())), bit);
          break;
        default:
          core.dtlb().CorruptVpnBit(
              rng.UniformBelow(static_cast<std::uint32_t>(
                  core.dtlb().EntrySlots())), bit);
          break;
      }
    }
  };
}

// A frame built in place is dispatcher record spans plus the jobs' block
// streams, retired by the block loop. On every path and platform, with
// and without upsets in the fault window, it gives the record loop's
// result over the expanded records, field for field; and the expanded
// frame is the by-value frame, job path signatures included.
TEST(RetireLoopTest, BlockFrameEqualsRecordFrame) {
  const apps::TvcaApp app;
  const auto seeds = FirstSeedPerPath(app);
  apps::FrameScratch scratch;
  for (std::uint32_t path = 0; path < 8; ++path) {
    SCOPED_TRACE(path);
    const std::uint64_t seed = seeds[path];
    const apps::FrameSpans& blocks = app.BuildFrame(seed, scratch);
    const apps::TvcaFrame records = app.BuildFrame(seed);
    ASSERT_EQ(blocks.path_id, path);
    EXPECT_EQ(records.path_id, path);
    EXPECT_EQ(records.trace.path_signature, records.path_id);
    std::vector<trace::TraceRecord> expanded;
    trace::Flatten(blocks.segments, expanded);
    ASSERT_EQ(expanded.size(), records.trace.records.size());
    EXPECT_TRUE(expanded == records.trace.records);
    // Job k of the scratch is the by-value job trace, signature included.
    const std::pair<apps::TvcaTask, std::uint64_t> jobs[] = {
        {apps::TvcaTask::kSensorAcq, seed},
        {apps::TvcaTask::kActuatorX, seed},
        {apps::TvcaTask::kActuatorX, DeriveSeed(seed, "x-job2")},
        {apps::TvcaTask::kActuatorY, seed},
        {apps::TvcaTask::kActuatorY, DeriveSeed(seed, "y-job2")}};
    for (std::size_t j = 0; j < 5; ++j) {
      const trace::Trace job =
          app.BuildTaskTrace(jobs[j].first, jobs[j].second, blocks.scenario);
      EXPECT_EQ(scratch.jobs[j].path_signature, job.path_signature);
      EXPECT_EQ(scratch.jobs[j].instructions, job.records.size());
    }

    for (const auto& [name, config] : RetireConfigs()) {
      SCOPED_TRACE(name);
      Platform p(config, 1);
      for (const Seed run_seed : {Seed{1}, Seed{2}}) {
        SCOPED_TRACE(run_seed);
        for (const bool upsets : {false, true}) {
          SCOPED_TRACE(upsets);
          const std::function<void(Platform&)> hook =
              upsets ? UpsetHook(run_seed) : nullptr;
          const RunResult from_blocks =
              p.RunWithHook(blocks.segments, run_seed, hook);
          const RunResult from_records =
              p.RunWithHook(records.trace, run_seed, hook);
          EXPECT_EQ(ResultDigest(from_blocks), ResultDigest(from_records));
          EXPECT_EQ(from_blocks.cycles, from_records.cycles);
          EXPECT_EQ(from_blocks.instructions, expanded.size());
          EXPECT_EQ(from_blocks.il1.misses, from_records.il1.misses);
          EXPECT_EQ(from_blocks.dl1.misses, from_records.dl1.misses);
        }
      }
    }
  }
}

// A block stream picks up the record loop's state where a record span
// left it: a load ending the span stalls a block's first instruction
// that reads its result, and a fetch on the span's last line is a
// guaranteed hit, exactly as in the expanded record stream.
TEST(RetireLoopTest, BlockStreamResumesTheRecordLoopState) {
  trace::ProgramBuilder b("resume");
  const auto arr = b.AddIntArray("a", 16);
  const auto entry = b.NewBlock();
  b.SetEntry(entry);
  b.SwitchTo(entry);
  b.IAdd(4, 3, 3);  // reads r3, the load's destination below
  b.LoadI(5, arr, 4, 1);
  b.IAdd(6, 5, 5);  // in-block load-use
  b.Halt();
  const trace::Program program = b.Build();
  const trace::DecodedProgram decoded(program);
  trace::Interpreter interp(decoded);
  trace::BlockTrace stream;
  interp.Run(stream);

  // The span ends on the block's first line, with a load into r3.
  std::vector<trace::TraceRecord> lead(3);
  for (std::size_t i = 0; i < lead.size(); ++i) {
    lead[i].pc = program.blocks[0].code_base + 4 * i;
    lead[i].op = trace::OpClass::kIntAlu;
  }
  lead.back().op = trace::OpClass::kLoad;
  lead.back().mem_addr = program.arrays[0].base;
  lead.back().dst_reg = 3;
  const trace::Segment segments[] = {{lead, nullptr}, {{}, &stream}};
  std::vector<trace::TraceRecord> flat;
  trace::Flatten(segments, flat);
  ASSERT_EQ(flat.size(), lead.size() + 4);

  for (const auto& [name, config] : RetireConfigs()) {
    SCOPED_TRACE(name);
    Platform p(config, 1);
    const RunResult from_blocks = p.RunWithHook(segments, 3, nullptr);
    trace::Trace t;
    t.records = flat;
    const RunResult from_records = p.Run(t, 3);
    EXPECT_EQ(ResultDigest(from_blocks), ResultDigest(from_records));
    EXPECT_EQ(from_blocks.cycles, from_records.cycles);
    // One line, one page: the first fetch misses, every later one hits.
    EXPECT_EQ(from_blocks.il1.misses, 1u);
    EXPECT_EQ(from_blocks.itlb.misses, 1u);
  }
}

/// Expects every slot of the four structures of `a` and `b` to hold the
/// same tag, stamp and reference bit.
void ExpectSameSlots(Core& a, Core& b) {
  for (auto cache : {&Core::il1, &Core::dl1}) {
    Cache& x = (a.*cache)();
    Cache& y = (b.*cache)();
    for (std::size_t slot = 0; slot < x.TagSlots(); ++slot) {
      ASSERT_EQ(x.TagAt(slot), y.TagAt(slot)) << "slot " << slot;
      ASSERT_EQ(x.StampAt(slot), y.StampAt(slot)) << "slot " << slot;
      ASSERT_EQ(x.ReferencedAt(slot), y.ReferencedAt(slot)) << "slot " << slot;
    }
  }
  for (auto tlb : {&Core::itlb, &Core::dtlb}) {
    Tlb& x = (a.*tlb)();
    Tlb& y = (b.*tlb)();
    for (std::size_t slot = 0; slot < x.EntrySlots(); ++slot) {
      ASSERT_EQ(x.VpnAt(slot), y.VpnAt(slot)) << "slot " << slot;
      ASSERT_EQ(x.StampAt(slot), y.StampAt(slot)) << "slot " << slot;
      ASSERT_EQ(x.ReferencedAt(slot), y.ReferencedAt(slot)) << "slot " << slot;
    }
  }
}

/// Runs `program` once as a block stream through the block loop and once
/// as its expanded records through the record loop, on two platforms of
/// `config`, with the upset hook armed or not, over several run seeds; and
/// expects equal results and equal slots every time. Returns the block
/// loop's result of the last seed without upsets.
RunResult ExpectBlockLoopEqualsRecordLoop(const trace::Program& program,
                                          const PlatformConfig& config) {
  const trace::DecodedProgram decoded(program);
  trace::Interpreter interp(decoded);
  trace::BlockTrace stream;
  interp.Run(stream);
  const trace::Segment segments[] = {{{}, &stream}};
  trace::Trace records;
  trace::Flatten(segments, records.records);
  Platform blocks(config, 1);
  Platform flat(config, 1);
  RunResult clean;
  for (const bool upsets : {false, true}) {
    SCOPED_TRACE(upsets);
    for (const Seed seed : {Seed{3}, Seed{4}, Seed{5}}) {
      SCOPED_TRACE(seed);
      const std::function<void(Platform&)> hook =
          upsets ? UpsetHook(seed) : nullptr;
      const RunResult got = blocks.RunWithHook(segments, seed, hook);
      const RunResult expected = flat.RunWithHook(records, seed, hook);
      EXPECT_EQ(ResultDigest(got), ResultDigest(expected));
      EXPECT_EQ(got.cycles, expected.cycles);
      EXPECT_EQ(got.dl1.accesses, expected.dl1.accesses);
      EXPECT_EQ(got.dl1.misses, expected.dl1.misses);
      EXPECT_EQ(got.dtlb.misses, expected.dtlb.misses);
      ExpectSameSlots(blocks.core(0), flat.core(0));
      if (!upsets) clean = got;
    }
  }
  return clean;
}

// DL1 is no-write-allocate: a store that misses leaves its line absent, so
// the next load of that line in the same block misses too, in the block
// loop as in the record loop. A load, or a store that hit, does bring or
// keep the line, so the access after it hits.
TEST(RetireLoopTest, StoreMissLeavesTheLineForTheNextLoadToMiss) {
  trace::ProgramBuilder b("store-miss");
  const auto arr = b.AddIntArray("a", 64);
  const auto entry = b.NewBlock();
  b.SetEntry(entry);
  b.SwitchTo(entry);
  b.IConst(1, 0);
  b.IConst(2, 9);
  b.StoreI(arr, 1, 2, 8);  // line 1 of a: store miss, not allocated
  b.LoadI(3, arr, 1, 9);   // same line: misses and fills
  b.LoadI(4, arr, 1, 10);  // same line: hits
  b.StoreI(arr, 1, 2, 11); // same line: a store that hits
  b.LoadI(5, arr, 1, 12);  // hits
  b.Halt();
  const trace::Program program = b.Build();
  for (const auto& [name, config] : RetireConfigs()) {
    SCOPED_TRACE(name);
    const RunResult r = ExpectBlockLoopEqualsRecordLoop(program, config);
    EXPECT_EQ(r.dl1.accesses, 5u);
    EXPECT_EQ(r.dl1.misses, 2u);  // the store and the load after it
    EXPECT_EQ(r.store_buffer.stores, 2u);
  }
}

// Runs of consecutive same-line loads (and a store that hits) across a
// walk larger than the DL1, so lines are evicted and refilled, give the
// record loop's result and leave the same stamps and reference bits under
// LRU, NRU and random replacement.
TEST(RetireLoopTest, SameLineLoadsMatchTheRecordLoopUnderEveryPolicy) {
  trace::ProgramBuilder b("same-line");
  constexpr std::int64_t kElems = 12 * 1024;  // 48 KiB of int32
  const auto arr = b.AddIntArray("walk", kElems);
  const auto entry = b.NewBlock();
  const auto head = b.NewBlock();
  const auto body = b.NewBlock();
  const auto done = b.NewBlock();
  b.SetEntry(entry);
  b.SwitchTo(entry);
  b.IConst(1, 0);
  b.IConst(2, kElems);
  b.Jump(head);
  b.SwitchTo(head);
  b.ICmpLt(3, 1, 2);
  b.BranchIfZero(3, done, body);
  b.SwitchTo(body);
  b.LoadI(4, arr, 1, 0);
  b.LoadI(5, arr, 1, 1);
  b.LoadI(6, arr, 1, 2);
  b.StoreI(arr, 1, 4, 3);
  b.LoadI(7, arr, 1, 3);
  b.IAddImm(1, 1, 4);
  b.Jump(head);
  b.SwitchTo(done);
  b.Halt();
  const trace::Program program = b.Build();
  for (const Replacement policy :
       {Replacement::kLru, Replacement::kNru, Replacement::kRandom}) {
    SCOPED_TRACE(ToString(policy));
    for (auto [name, config] : RetireConfigs()) {
      SCOPED_TRACE(name);
      config.dl1.replacement = policy;
      config.dtlb.replacement = policy;
      const RunResult r = ExpectBlockLoopEqualsRecordLoop(program, config);
      EXPECT_EQ(r.dl1.accesses, 5u * kElems / 4);
      EXPECT_GT(r.dl1.misses, 0u);
    }
  }
}

// Reseed flushes the fetch structures, so a run's first fetch is a full
// lookup even when it reuses the line the previous run fetched last.
TEST(RetireLoopTest, ReseedForgetsThePreviousFetch) {
  trace::Trace t;
  for (int i = 0; i < 40; ++i) {
    trace::TraceRecord r;
    r.pc = 0x40000000 + 4 * (i % 4);  // one 32-byte line throughout
    r.op = trace::OpClass::kIntAlu;
    t.records.push_back(r);
  }
  for (const auto& [name, config] : RetireConfigs()) {
    SCOPED_TRACE(name);
    Platform fresh(config, 1);
    const RunResult expected = fresh.Run(t, 5);
    EXPECT_EQ(expected.il1.misses, 1u);
    EXPECT_EQ(expected.itlb.misses, 1u);
    Platform reused(config, 1);
    reused.Run(t, 4);
    EXPECT_EQ(ResultDigest(reused.Run(t, 5)), ResultDigest(expected));
    // Also when the previous run was abandoned mid-stream by Step.
    MemorySystem mem(config.bus, config.dram);
    Core core(config, 0, &mem, 1);
    core.Reseed(4);
    core.AttachTrace(&t);
    for (int i = 0; i < 10; ++i) core.Step();
    core.Reseed(5);
    EXPECT_EQ(core.Run(t).il1.accesses, t.records.size());
  }
}

TEST(ConfigTest, PresetsValidateAndDiffer) {
  const PlatformConfig det = DetLeon3Config();
  const PlatformConfig rnd = RandLeon3Config();
  EXPECT_EQ(det.dl1.placement, Placement::kModulo);
  EXPECT_EQ(rnd.dl1.placement, Placement::kRandomModulo);
  EXPECT_EQ(rnd.dl1.replacement, Replacement::kRandom);
  EXPECT_EQ(det.fpu.mode, FpuMode::kVariable);
  EXPECT_EQ(rnd.fpu.mode, FpuMode::kWorstCaseFixed);
  EXPECT_EQ(RandLeon3OperationConfig().fpu.mode, FpuMode::kVariable);
  EXPECT_EQ(det.il1.num_sets(), 128u);
  EXPECT_EQ(det.itlb.entries, 64u);
  EXPECT_EQ(det.cores, 4u);
}

TEST(ConfigTest, PolicyNames) {
  EXPECT_STREQ(ToString(Placement::kRandomModulo), "random-modulo");
  EXPECT_STREQ(ToString(Replacement::kNru), "nru");
}

TEST(ConfigDeathTest, BadGeometryRejected) {
  PlatformConfig cfg = DetLeon3Config();
  cfg.dl1.size_bytes = 1000;  // not divisible into power-of-two sets
  EXPECT_DEATH(cfg.Validate(), "");
}

}  // namespace
}  // namespace spta::sim
