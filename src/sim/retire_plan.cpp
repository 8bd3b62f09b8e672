#include "sim/retire_plan.hpp"

#include <bit>
#include <limits>

#include "common/assert.hpp"
#include "sim/fpu.hpp"

namespace spta::sim {
namespace {

std::uint32_t Narrow(Cycles cycles) {
  SPTA_CHECK_MSG(cycles <= std::numeric_limits<std::uint32_t>::max(),
                 "a block's static cycles overflow its retire plan");
  return static_cast<std::uint32_t>(cycles);
}

}  // namespace

RetirePlan::RetirePlan(const trace::DecodedProgram& program,
                       const PlatformConfig& config)
    : program_id_(program.id()) {
  using trace::OpClass;
  SPTA_REQUIRE(program_id_ != 0);
  const auto line_shift = std::countr_zero(config.il1.line_bytes);
  const auto page_shift = std::countr_zero(config.itlb.page_bytes);
  const PipelineConfig& pipe = config.pipeline;
  // Latencies come from the FPU model itself; an operation is static when
  // its latency does not depend on the operand class.
  Fpu fpu(config.fpu);
  const auto fixed_latency = [&](OpClass op, Cycles* latency) {
    *latency = fpu.Latency(op, 0);
    for (std::uint8_t c = 1; c < trace::kFpuOperandClasses; ++c) {
      if (fpu.Latency(op, c) != *latency) return false;
    }
    return true;
  };

  blocks_.resize(program.block_count());
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const auto id = static_cast<trace::BlockId>(b);
    const auto records = program.Templates(id);
    const auto insts = program.Insts(id);
    Block& block = blocks_[b];
    block.first_pc = records.front().pc;
    block.last_pc = records.back().pc;
    block.first_step = static_cast<std::uint32_t>(steps_.size());
    block.first_src1 = records.front().src1_reg;
    block.first_src2 = records.front().src2_reg;

    Cycles pending = 0;  // static cycles since the last step
    std::uint32_t hits = 0;
    std::uint8_t load_reg = trace::kNoReg;
    const auto emit = [&](Step step) {
      step.cycles = Narrow(pending);
      pending = 0;
      steps_.push_back(step);
    };
    for (std::size_t i = 0; i < records.size(); ++i) {
      const trace::TraceRecord& rec = records[i];
      if (i > 0) {
        // The record loop's fetch rule and load delay slot, against the
        // record before in the same block.
        const Address prev = records[i - 1].pc;
        if ((prev >> line_shift) == (rec.pc >> line_shift) &&
            (prev >> page_shift) == (rec.pc >> page_shift)) {
          ++hits;
        } else {
          emit({.pc = rec.pc, .hits = hits, .kind = StepKind::kFetch});
          hits = 0;
        }
        if (rec.Reads(load_reg)) pending += pipe.load_use_stall;
      }
      load_reg = rec.op == OpClass::kLoad ? rec.dst_reg : trace::kNoReg;

      switch (rec.op) {
        case OpClass::kIntAlu:
        case OpClass::kNop:
          pending += pipe.int_alu;
          break;
        case OpClass::kIntMul:
          pending += pipe.int_mul;
          break;
        case OpClass::kIntDiv:
          pending += pipe.int_div;
          break;
        case OpClass::kBranch:
          pending += pipe.int_alu;
          if (insts[i].op == trace::IrOp::kBranchIfZero ||
              insts[i].op == trace::IrOp::kBranchIfNeg) {
            block.cond_branch = true;
          } else if (rec.branch_taken) {
            pending += pipe.taken_branch_penalty;
          }
          break;
        case OpClass::kFpAdd:
        case OpClass::kFpMul:
        case OpClass::kFpDiv:
        case OpClass::kFpSqrt: {
          const std::uint32_t column =
              trace::IsJitteryFpu(rec.op) ? block.fpu_classes++ : 0;
          Cycles latency = 0;
          if (fixed_latency(rec.op, &latency)) {
            pending += latency;
            ++block.fpu_ops;
            block.fpu_cycles += latency;
          } else {
            emit({.column = column, .kind = StepKind::kFpu, .op = rec.op});
          }
          break;
        }
        case OpClass::kLoad:
        case OpClass::kStore:
          pending += pipe.int_alu;
          emit({.column = block.mem_ops++,
                .kind = rec.op == OpClass::kLoad ? StepKind::kLoad
                                                 : StepKind::kStore});
          break;
      }
    }
    // Validation guarantees the terminator is last, so its load slot is
    // empty: the next block starts with no pending load.
    SPTA_CHECK(load_reg == trace::kNoReg);
    block.tail_cycles = Narrow(pending);
    block.tail_hits = hits;
    block.steps =
        static_cast<std::uint32_t>(steps_.size()) - block.first_step;
  }
}

}  // namespace spta::sim
