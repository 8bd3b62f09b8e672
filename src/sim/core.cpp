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

inline void Core::Fetch(Address pc, Registers& r) {
  ApplyFetchRun(r.fetch_run);
  if (!itlb_.Access(pc)) {
    r.now += config_.itlb.miss_penalty;
  }
  if (!il1_.Access(pc)) {
    r.now = memory_->LineFill(id_, pc, r.now);
  }
}

inline void Core::Load(Address addr, Registers& r) {
  if (!dtlb_.Access(addr)) {
    r.now += config_.dtlb.miss_penalty;
  }
  if (!dl1_.Access(addr, /*allocate_on_miss=*/true)) {
    r.now = memory_->LineFill(id_, addr, r.now);
  }
}

inline void Core::Store(Address addr, Registers& r) {
  if (!dtlb_.Access(addr)) {
    r.now += config_.dtlb.miss_penalty;
  }
  // Write-through no-write-allocate: lookup updates the line on hit but
  // never allocates; the write always goes to the bus via the buffer.
  dl1_.Access(addr, /*allocate_on_miss=*/false);
  // Push is a template over the callable: the bus dispatch inlines here
  // with no std::function type erasure on the per-store path.
  r.now = store_buffer_.Push(r.now, [this, addr](Cycles ready) {
    return memory_->Store(id_, addr, ready);
  });
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
    Fetch(rec.pc, r);
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
    case OpClass::kLoad:
      r.now += config_.pipeline.int_alu;  // address generation + access slot
      Load(rec.mem_addr, r);
      break;
    case OpClass::kStore:
      r.now += config_.pipeline.int_alu;
      Store(rec.mem_addr, r);
      break;
  }
}

void Core::RetireBlocks(const RetirePlan& plan,
                        const trace::BlockTrace& stream, Registers& r) {
  using Kind = RetirePlan::StepKind;
  const Address* mem = stream.mem_addrs.data();
  const std::uint8_t* taken = stream.taken.data();
  const std::uint8_t* fpu_classes = stream.fpu_classes.data();
  const RetirePlan::Step* const steps = plan.steps();
  std::uint64_t fpu_ops = 0;
  Cycles fpu_cycles = 0;
  for (const trace::BlockId id : stream.blocks) {
    const RetirePlan::Block& block = plan.block(id);
    // The block's first record follows whatever retired last (another
    // block, or a record span): its fetch and load slot are checked here.
    const FetchRule::Repeat repeat = r.fetch.Next(block.first_pc);
    if (repeat.line && repeat.page) {
      ++r.fetch_run;
    } else {
      Fetch(block.first_pc, r);
    }
    if (r.pending_load_reg != trace::kNoReg &&
        (block.first_src1 == r.pending_load_reg ||
         block.first_src2 == r.pending_load_reg)) {
      r.now += config_.pipeline.load_use_stall;
    }
    const RetirePlan::Step* step = steps + block.first_step;
    for (const RetirePlan::Step* end = step + block.steps; step != end;
         ++step) {
      r.now += step->cycles;
      switch (step->kind) {
        case Kind::kFetch:
          r.fetch_run += step->hits;
          Fetch(step->pc, r);
          break;
        case Kind::kLoad:
          Load(mem[step->column], r);
          break;
        case Kind::kStore:
          Store(mem[step->column], r);
          break;
        case Kind::kFpu:
          r.now += fpu_.Latency(step->op, fpu_classes[step->column]);
          break;
      }
    }
    r.now += block.tail_cycles;
    r.fetch_run += block.tail_hits;
    if (block.cond_branch && *taken++ != 0) {
      r.now += config_.pipeline.taken_branch_penalty;
    }
    r.fetch.Next(block.last_pc);
    r.pending_load_reg = trace::kNoReg;  // a block ends in a branch
    mem += block.mem_ops;
    fpu_classes += block.fpu_classes;
    fpu_ops += block.fpu_ops;
    fpu_cycles += block.fpu_cycles;
  }
  fpu_.Charge(fpu_ops, fpu_cycles);
}

const RetirePlan& Core::PlanFor(const trace::DecodedProgram& program) {
  for (const auto& plan : plans_) {
    if (plan->program_id() == program.id()) return *plan;
  }
  // A campaign runs a few programs; a core reused across many apps keeps
  // only the latest plans.
  constexpr std::size_t kMaxPlans = 8;
  if (plans_.size() == kMaxPlans) plans_.erase(plans_.begin());
  plans_.push_back(std::make_unique<const RetirePlan>(program, config_));
  return *plans_.back();
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

RunResult Core::Run(std::span<const trace::Segment> segments) {
  trace_ = nullptr;  // Run replaces any attached trace.
  // Tight single-core loops, without the HasWork()/Step() protocol (which
  // re-checks bounds per record and exists for multicore interleaving).
  Registers r = LoadRegisters();
  for (const trace::Segment& segment : segments) {
    if (segment.blocks != nullptr) {
      const trace::BlockTrace& stream = *segment.blocks;
      RetireBlocks(PlanFor(*stream.program), stream, r);
    } else {
      for (const trace::TraceRecord& rec : segment.records) Retire(rec, r);
    }
    retired_ += segment.instructions();
  }
  StoreRegisters(r);
  return Finish();
}

RunResult Core::Run(const trace::Trace& t) {
  const trace::Segment whole{t.records, nullptr};
  return Run(std::span<const trace::Segment>(&whole, 1));
}

}  // namespace spta::sim
