#include "sim/core.hpp"

#include "common/assert.hpp"
#include "common/hash.hpp"

namespace spta::sim {

Core::Core(const PlatformConfig& config, CoreId id, MemorySystem* memory,
           Seed seed)
    : config_(config),
      id_(id),
      memory_(memory),
      il1_(config.il1, DeriveSeed(seed, "il1")),
      dl1_(config.dl1, DeriveSeed(seed, "dl1")),
      itlb_(config.itlb, DeriveSeed(seed, "itlb")),
      dtlb_(config.dtlb, DeriveSeed(seed, "dtlb")),
      fpu_(config.fpu),
      store_buffer_(config.store_buffer),
      fetch_(config) {
  SPTA_REQUIRE(memory != nullptr);
}

void Core::Reseed(Seed seed) {
  il1_.Reseed(DeriveSeed(seed, "il1"));
  dl1_.Reseed(DeriveSeed(seed, "dl1"));
  itlb_.Reseed(DeriveSeed(seed, "itlb"));
  dtlb_.Reseed(DeriveSeed(seed, "dtlb"));
  il1_.ResetStats();
  dl1_.ResetStats();
  itlb_.ResetStats();
  dtlb_.ResetStats();
  fpu_.ResetStats();
  store_buffer_.Reset();
  now_ = 0;
  retired_ = 0;
  pending_load_reg_ = trace::kNoReg;
  // The fetch structures were just flushed: no fetch is a guaranteed hit
  // until one has been made, and hits deferred before the flush are void.
  fetch_.Reset();
  fetch_run_ = 0;
  trace_ = nullptr;
  cursor_ = 0;
}

void Core::AttachTrace(const trace::Trace* t) {
  SPTA_REQUIRE(t != nullptr);
  trace_ = t;
  cursor_ = 0;
}

bool Core::HasWork() const {
  return trace_ != nullptr && cursor_ < trace_->records.size();
}

inline void Core::Retire(const trace::TraceRecord& rec, Registers& r) {
  using trace::OpClass;

  // --- Instruction fetch: ITLB, then IL1. -------------------------------
  // A fetch from the previous fetch's line and page is a guaranteed MRU
  // hit in both (sim/fetch_rule.hpp): count it and apply the whole run at
  // once before the next full fetch. Neither changes the clock.
  const FetchRule::Repeat repeat = r.fetch.Next(rec.pc);
  if (repeat.line && repeat.page) {
    ++r.fetch_run;
  } else {
    ApplyFetchRun(r.fetch_run);
    if (!itlb_.Access(rec.pc)) {
      r.now += config_.itlb.miss_penalty;
    }
    if (!il1_.Access(rec.pc)) {
      r.now = memory_->LineFill(id_, rec.pc, r.now);
    }
  }

  // --- Load delay slot: consuming the previous load's result stalls. ----
  if (rec.Reads(r.pending_load_reg)) {
    r.now += config_.pipeline.load_use_stall;
  }
  r.pending_load_reg = rec.op == OpClass::kLoad ? rec.dst_reg : trace::kNoReg;

  // --- Execute: base pipeline latency per op class. ----------------------
  switch (rec.op) {
    case OpClass::kIntAlu:
    case OpClass::kNop:
      r.now += config_.pipeline.int_alu;
      break;
    case OpClass::kIntMul:
      r.now += config_.pipeline.int_mul;
      break;
    case OpClass::kIntDiv:
      r.now += config_.pipeline.int_div;
      break;
    case OpClass::kBranch:
      r.now += config_.pipeline.int_alu;
      if (rec.branch_taken) r.now += config_.pipeline.taken_branch_penalty;
      break;
    case OpClass::kFpAdd:
    case OpClass::kFpMul:
    case OpClass::kFpDiv:
    case OpClass::kFpSqrt:
      r.now += fpu_.Latency(rec.op, rec.fpu_operand_class);
      break;
    case OpClass::kLoad: {
      r.now += config_.pipeline.int_alu;  // address generation + access slot
      if (!dtlb_.Access(rec.mem_addr)) {
        r.now += config_.dtlb.miss_penalty;
      }
      if (!dl1_.Access(rec.mem_addr, /*allocate_on_miss=*/true)) {
        r.now = memory_->LineFill(id_, rec.mem_addr, r.now);
      }
      break;
    }
    case OpClass::kStore: {
      r.now += config_.pipeline.int_alu;
      if (!dtlb_.Access(rec.mem_addr)) {
        r.now += config_.dtlb.miss_penalty;
      }
      // Write-through no-write-allocate: lookup updates the line on hit but
      // never allocates; the write always goes to the bus via the buffer.
      dl1_.Access(rec.mem_addr, /*allocate_on_miss=*/false);
      const Address addr = rec.mem_addr;
      // Push is a template over the callable: the bus dispatch inlines here
      // with no std::function type erasure on the per-store path.
      r.now = store_buffer_.Push(r.now, [this, addr](Cycles ready) {
        return memory_->Store(id_, addr, ready);
      });
      break;
    }
  }
}

void Core::Step() {
  SPTA_REQUIRE(HasWork());
  Registers r = LoadRegisters();
  Retire(trace_->records[cursor_], r);
  StoreRegisters(r);
  ++cursor_;
  ++retired_;
}

RunResult Core::Finish() {
  SPTA_REQUIRE_MSG(!HasWork(),
                   "Finish called before the trace was fully retired");
  ApplyFetchRun(fetch_run_);
  now_ = store_buffer_.DrainAll(now_);
  RunResult r;
  r.cycles = now_;
  r.instructions = retired_;
  r.il1 = il1_.stats();
  r.dl1 = dl1_.stats();
  r.itlb = itlb_.stats();
  r.dtlb = dtlb_.stats();
  r.fpu = fpu_.stats();
  r.store_buffer = store_buffer_.stats();
  for (const auto& draws : {il1_.draw_stats(), dl1_.draw_stats(),
                            itlb_.draw_stats(), dtlb_.draw_stats()}) {
    r.prng.words += draws.words;
    r.prng.rejections += draws.rejections;
  }
  r.bus = memory_->bus().stats();
  r.dram = memory_->dram().stats();
  trace_ = nullptr;
  cursor_ = 0;
  return r;
}

RunResult Core::Run(std::span<const trace::RecordSpan> spans) {
  trace_ = nullptr;  // Run replaces any attached trace.
  // Tight single-core loop over the record arrays, without the
  // HasWork()/Step() protocol (which re-checks bounds per record and
  // exists for multicore interleaving). Same retire body, same result.
  Registers r = LoadRegisters();
  for (const trace::RecordSpan span : spans) {
    for (const trace::TraceRecord& rec : span) Retire(rec, r);
    retired_ += span.size();
  }
  StoreRegisters(r);
  return Finish();
}

RunResult Core::Run(const trace::Trace& t) {
  const trace::RecordSpan whole(t.records);
  return Run(std::span<const trace::RecordSpan>(&whole, 1));
}

}  // namespace spta::sim
