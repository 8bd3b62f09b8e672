// FPU latency model.
//
// On the real GRFPU, FDIV and FSQRT latency depends on the operand values;
// all other FP operations are fixed-latency (jitterless). The paper's
// hardware change forces FDIV/FSQRT to their *worst-case fixed* latency
// during the analysis phase, upper-bounding operation-phase behaviour
// without user-controlled experiments. Both modes are modeled here.
#pragma once

#include "common/types.hpp"
#include "sim/config.hpp"
#include "trace/record.hpp"

namespace spta::sim {

struct FpuStats {
  std::uint64_t operations = 0;
  Cycles total_cycles = 0;
};

class Fpu {
 public:
  explicit Fpu(const FpuConfig& config);

  /// Latency of one FP operation given its operand class. Non-FPU op
  /// classes are rejected (precondition).
  Cycles Latency(trace::OpClass op, std::uint8_t operand_class);

  /// Worst-case latency of `op` across all operand classes (what the
  /// analysis-phase fixed mode charges).
  Cycles WorstCaseLatency(trace::OpClass op) const;

  const FpuConfig& config() const { return config_; }
  const FpuStats& stats() const { return stats_; }
  void ResetStats() { stats_ = FpuStats{}; }

 private:
  FpuConfig config_;
  FpuStats stats_;
};

/// True for op classes handled by the FPU.
bool IsFpuOp(trace::OpClass op);

}  // namespace spta::sim
