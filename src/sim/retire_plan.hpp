// Per-block retire plans: a decoded program's timing, precomputed once per
// platform configuration.
//
// Most of what the retire loop works out for a record is fixed by the IR
// instruction: its base pipeline latency, a fixed FPU latency, a load-use
// stall against the record before it in the same block, and whether its
// fetch stays in the previous fetch's IL1 line and ITLB page (a
// guaranteed MRU hit, sim/fetch_rule.hpp). A RetirePlan folds all of that
// into each basic block once, leaving per block only the events whose
// outcome depends on the run: the fetches that cross into a new line or
// page, the loads and stores, and FDIV/FSQRT when their latency depends
// on the operands. sim::Core retires a block stream (trace::BlockTrace) by
// walking these steps; the record it would have expanded to is never
// built. The result is the record loop's, bit for bit: the static cycles
// between two steps are charged before the second step, so every
// clock-dependent call (a line fill, a store-buffer push) sees the clock
// the record loop would have passed it.
//
// A plan is immutable once built. Core builds the plans it needs on its
// first block stream of each program and keeps them, so plans are owned
// per core (per campaign worker) and never shared between threads.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sim/config.hpp"
#include "trace/interpreter.hpp"
#include "trace/record.hpp"

namespace spta::sim {

class RetirePlan {
 public:
  enum class StepKind : std::uint8_t {
    kFetch,  ///< A fetch into a new IL1 line or ITLB page.
    kLoad,
    kStore,
    kFpu,  ///< An FDIV/FSQRT whose latency depends on its operand class.
  };

  /// One run-dependent event of a block, in record order.
  struct Step {
    Address pc = 0;            ///< kFetch: the fetch address.
    std::uint32_t cycles = 0;  ///< Static cycles retired before the event.
    /// kFetch: guaranteed-MRU fetch hits since the block's previous fetch.
    std::uint32_t hits = 0;
    /// kLoad/kStore: index into the block's mem_addrs entries; kFpu: into
    /// its fpu_classes entries.
    std::uint32_t column = 0;
    StepKind kind = StepKind::kFetch;
    trace::OpClass op = trace::OpClass::kNop;  ///< kFpu: the operation.
  };

  /// One basic block. Its first fetch and its first record's load-use
  /// stall depend on the record before the block, so they are left to the
  /// retire loop; so is a conditional terminator's taken penalty.
  struct Block {
    Address first_pc = 0;
    Address last_pc = 0;
    std::uint32_t first_step = 0;
    std::uint32_t steps = 0;
    std::uint32_t tail_cycles = 0;  ///< Static cycles after the last step.
    std::uint32_t tail_hits = 0;    ///< Fetch hits after the last fetch.
    std::uint32_t mem_ops = 0;      ///< mem_addrs entries the block uses.
    std::uint32_t fpu_classes = 0;  ///< fpu_classes entries it uses.
    /// FPU operations charged at a fixed latency, and their cycles.
    std::uint32_t fpu_ops = 0;
    Cycles fpu_cycles = 0;
    std::uint8_t first_src1 = trace::kNoReg;  ///< First record's sources.
    std::uint8_t first_src2 = trace::kNoReg;
    bool cond_branch = false;  ///< Ends in a conditional branch.
  };

  RetirePlan(const trace::DecodedProgram& program,
             const PlatformConfig& config);

  /// DecodedProgram::id() of the program the plan was built from.
  std::uint64_t program_id() const { return program_id_; }
  const Block& block(trace::BlockId b) const {
    return blocks_[static_cast<std::size_t>(b)];
  }
  const Step* steps() const { return steps_.data(); }

 private:
  std::uint64_t program_id_;
  std::vector<Block> blocks_;
  std::vector<Step> steps_;
};

}  // namespace spta::sim
