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
      store_buffer_(config.store_buffer) {
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

void Core::Step() {
  SPTA_REQUIRE(HasWork());
  RetireRecord(trace_->records[cursor_]);
  ++cursor_;
}

void Core::RetireRecord(const trace::TraceRecord& rec) {
  using trace::OpClass;
  ++retired_;

  // --- Instruction fetch: ITLB, then IL1. -------------------------------
  if (!itlb_.Access(rec.pc)) {
    now_ += config_.itlb.miss_penalty;
  }
  if (!il1_.Access(rec.pc)) {
    now_ = memory_->LineFill(id_, rec.pc, now_);
  }

  // --- Load delay slot: consuming the previous load's result stalls. ----
  if (rec.Reads(pending_load_reg_)) {
    now_ += config_.pipeline.load_use_stall;
  }
  pending_load_reg_ =
      rec.op == OpClass::kLoad ? rec.dst_reg : trace::kNoReg;

  // --- Execute: base pipeline latency per op class. ----------------------
  switch (rec.op) {
    case OpClass::kIntAlu:
    case OpClass::kNop:
      now_ += config_.pipeline.int_alu;
      break;
    case OpClass::kIntMul:
      now_ += config_.pipeline.int_mul;
      break;
    case OpClass::kIntDiv:
      now_ += config_.pipeline.int_div;
      break;
    case OpClass::kBranch:
      now_ += config_.pipeline.int_alu;
      if (rec.branch_taken) now_ += config_.pipeline.taken_branch_penalty;
      break;
    case OpClass::kFpAdd:
    case OpClass::kFpMul:
    case OpClass::kFpDiv:
    case OpClass::kFpSqrt:
      now_ += fpu_.Latency(rec.op, rec.fpu_operand_class);
      break;
    case OpClass::kLoad: {
      now_ += config_.pipeline.int_alu;  // address generation + access slot
      if (!dtlb_.Access(rec.mem_addr)) {
        now_ += config_.dtlb.miss_penalty;
      }
      if (!dl1_.Access(rec.mem_addr, /*allocate_on_miss=*/true)) {
        now_ = memory_->LineFill(id_, rec.mem_addr, now_);
      }
      break;
    }
    case OpClass::kStore: {
      now_ += config_.pipeline.int_alu;
      if (!dtlb_.Access(rec.mem_addr)) {
        now_ += config_.dtlb.miss_penalty;
      }
      // Write-through no-write-allocate: lookup updates the line on hit but
      // never allocates; the write always goes to the bus via the buffer.
      dl1_.Access(rec.mem_addr, /*allocate_on_miss=*/false);
      const Address addr = rec.mem_addr;
      // Push is a template over the callable: the bus dispatch inlines here
      // with no std::function type erasure on the per-store path.
      now_ = store_buffer_.Push(now_, [this, addr](Cycles ready) {
        return memory_->Store(id_, addr, ready);
      });
      break;
    }
  }
}

RunResult Core::Finish() {
  SPTA_REQUIRE_MSG(trace_ != nullptr && cursor_ == trace_->records.size(),
                   "Finish called before the trace was fully retired");
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

RunResult Core::Run(const trace::Trace& t) {
  AttachTrace(&t);
  // Tight single-core loop: iterate the record array directly instead of
  // the HasWork()/Step() protocol (which re-checks bounds per record and
  // exists for multicore interleaving). Same retire sequence, same result.
  const trace::TraceRecord* records = t.records.data();
  const std::size_t count = t.records.size();
  for (std::size_t i = 0; i < count; ++i) RetireRecord(records[i]);
  cursor_ = count;
  return Finish();
}

}  // namespace spta::sim
