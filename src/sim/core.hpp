// Per-core timing model: a 7-stage in-order LEON3-class pipeline with
// first-level instruction/data caches, split TLBs, an FPU and a store
// buffer, connected to the shared memory system.
//
// The model is cycle-accounting (not micro-architecturally exact): each
// retired instruction charges its base pipeline latency plus any memory /
// FPU stall cycles. This captures precisely the jitter sources the paper
// manipulates — cache placement/replacement, TLB replacement, FPU operand
// dependence, bus/DRAM interference — on top of a jitterless base pipeline.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "sim/bus.hpp"
#include "sim/cache.hpp"
#include "sim/config.hpp"
#include "sim/fetch_rule.hpp"
#include "sim/fpu.hpp"
#include "sim/memory_system.hpp"
#include "sim/retire_plan.hpp"
#include "sim/store_buffer.hpp"
#include "sim/tlb.hpp"
#include "trace/interpreter.hpp"
#include "trace/record.hpp"

namespace spta::sim {

/// Platform-PRNG consumption of one run, summed over the core's four
/// randomized replacement streams (IL1/DL1/ITLB/DTLB). `words` is engine
/// words served, `rejections` the modulo-rejection retries among them —
/// the entropy-budget attribution the obs layer exports per run.
struct PrngStats {
  std::uint64_t words = 0;
  std::uint64_t rejections = 0;
};

/// Timing outcome and event counters of one run on one core.
struct RunResult {
  Cycles cycles = 0;
  std::uint64_t instructions = 0;
  CacheStats il1;
  CacheStats dl1;
  TlbStats itlb;
  TlbStats dtlb;
  FpuStats fpu;
  StoreBufferStats store_buffer;
  PrngStats prng;
  /// Shared memory-path statistics at the end of the run (identical in
  /// every core's result of one RunConcurrent: the path is shared).
  BusStats bus;
  DramStats dram;

  double Cpi() const {
    return instructions == 0 ? 0.0
                             : static_cast<double>(cycles) /
                                   static_cast<double>(instructions);
  }
};

class Core {
 public:
  /// `memory` is the shared memory system; it must outlive the core.
  Core(const PlatformConfig& config, CoreId id, MemorySystem* memory,
       Seed seed);

  /// Installs fresh per-run randomization (placement mapping, replacement
  /// streams) and flushes caches/TLBs/store buffer — the simulator
  /// equivalent of the paper's "flush caches, reset the FPGA, reload the
  /// executable, set a new seed" per-run protocol.
  void Reseed(Seed seed);

  /// Attaches a trace for step-wise execution (multicore interleaving).
  /// The trace must outlive the stepping.
  void AttachTrace(const trace::Trace* t);

  /// True when an attached trace has unretired instructions.
  bool HasWork() const;

  /// Retires the next instruction of the attached trace, advancing the
  /// local clock. Requires HasWork().
  void Step();

  /// Finishes the run: applies any deferred fetch hits, drains the store
  /// buffer into the local clock and returns the result. Requires an
  /// attached trace to be fully retired.
  RunResult Finish();

  /// Single-core execution: Reseed is NOT called (callers decide the
  /// per-run protocol); retires the segments back to back, as one record
  /// stream, and finishes. A record span goes through the record loop; a
  /// block stream goes through the block loop, which walks the program's
  /// RetirePlan (built on the core's first stream of that program) and
  /// gives the result of the record loop over the expanded records.
  RunResult Run(std::span<const trace::Segment> segments);

  /// Run over the one-segment list of `t`'s records.
  RunResult Run(const trace::Trace& t);

  /// Local clock (cycles retired so far).
  Cycles now() const { return now_; }
  CoreId id() const { return id_; }

  // --- Fault-injection surface (src/fault) -------------------------------
  // Mutable access to the per-core arrays so the seeded injector can flip
  // tag/VPN bits between the per-run reset and execution. Off the hot path.
  // Handing out a fetch structure voids the fetch rule's guarantee, so the
  // deferred hits are applied first and the next fetch is a full lookup.
  Cache& il1() {
    ReleaseFetchState();
    return il1_;
  }
  Cache& dl1() { return dl1_; }
  Tlb& itlb() {
    ReleaseFetchState();
    return itlb_;
  }
  Tlb& dtlb() { return dtlb_; }

 private:
  /// The retire loop's per-record state, copied into locals for one Run or
  /// Step so it stays in registers across the out-of-line memory-system
  /// calls, and stored back afterwards.
  struct Registers {
    Cycles now;
    std::uint8_t pending_load_reg;
    FetchRule fetch;
    /// Fetches that hit the previous fetch's IL1 line and ITLB page and
    /// are not yet applied to the IL1 and ITLB (see ApplyFetchRun).
    std::uint64_t fetch_run;
  };

  Registers LoadRegisters() const {
    return {now_, pending_load_reg_, fetch_, fetch_run_};
  }
  void StoreRegisters(const Registers& r) {
    now_ = r.now;
    pending_load_reg_ = r.pending_load_reg;
    fetch_ = r.fetch;
    fetch_run_ = r.fetch_run;
  }

  /// Retires one record: the record loop's body, inlined by Run and Step.
  [[gnu::always_inline]] inline void Retire(const trace::TraceRecord& rec,
                                            Registers& r);

  /// Retires a block stream: the block loop.
  void RetireBlocks(const RetirePlan& plan, const trace::BlockTrace& stream,
                    Registers& r);

  // The accesses both loops make, so cache, TLB and bus semantics live in
  // one place. Fetch is a full fetch (ITLB, then IL1), after applying the
  // deferred fetch hits.
  [[gnu::always_inline]] inline void Fetch(Address pc, Registers& r);
  [[gnu::always_inline]] inline void Load(Address addr, Registers& r);
  [[gnu::always_inline]] inline void Store(Address addr, Registers& r);

  /// The plan of `program` for this core's config, built on first use.
  const RetirePlan& PlanFor(const trace::DecodedProgram& program);

  /// Applies `run` deferred guaranteed-MRU fetch hits to the IL1 and ITLB
  /// as one MruHits update each, and clears it. Must run before anything
  /// else touches or reads the fetch structures.
  void ApplyFetchRun(std::uint64_t& run) {
    if (run == 0) return;
    itlb_.MruHits(run);
    il1_.MruHits(run);
    run = 0;
  }

  void ReleaseFetchState() {
    ApplyFetchRun(fetch_run_);
    fetch_.Reset();
  }

  const PlatformConfig& config_;
  CoreId id_;
  MemorySystem* memory_;
  Cache il1_;
  Cache dl1_;
  Tlb itlb_;
  Tlb dtlb_;
  Fpu fpu_;
  StoreBuffer store_buffer_;
  Cycles now_ = 0;
  std::uint64_t retired_ = 0;
  std::uint8_t pending_load_reg_ = trace::kNoReg;
  FetchRule fetch_;
  std::uint64_t fetch_run_ = 0;
  const trace::Trace* trace_ = nullptr;
  std::size_t cursor_ = 0;
  /// Retire plans by program, most recent last (a handful at most).
  std::vector<std::unique_ptr<const RetirePlan>> plans_;
};

}  // namespace spta::sim
