// FPU latency model.
//
// On the real GRFPU, FDIV and FSQRT latency depends on the operand values;
// all other FP operations are fixed-latency (jitterless). The paper's
// hardware change forces FDIV/FSQRT to their *worst-case fixed* latency
// during the analysis phase, upper-bounding operation-phase behaviour
// without user-controlled experiments. Both modes are modeled here.
#pragma once

#include <array>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "sim/config.hpp"
#include "trace/record.hpp"

namespace spta::sim {

struct FpuStats {
  std::uint64_t operations = 0;
  Cycles total_cycles = 0;
};

/// True for op classes handled by the FPU.
inline bool IsFpuOp(trace::OpClass op) {
  return op >= trace::OpClass::kFpAdd && op <= trace::OpClass::kFpSqrt;
}

class Fpu {
 public:
  explicit Fpu(const FpuConfig& config);

  /// Latency of one FP operation given its operand class, read from the
  /// table the constructor fills. Non-FPU op classes are rejected
  /// (precondition).
  Cycles Latency(trace::OpClass op, std::uint8_t operand_class) {
    SPTA_REQUIRE(IsFpuOp(op));
    SPTA_REQUIRE(operand_class < trace::kFpuOperandClasses);
    const Cycles lat = latency_[static_cast<std::size_t>(op) - kFirstOp]
                               [operand_class];
    ++stats_.operations;
    stats_.total_cycles += lat;
    return lat;
  }

  /// Adds `operations` operations totalling `cycles` to the statistics,
  /// as the Latency calls that charged them would have.
  void Charge(std::uint64_t operations, Cycles cycles) {
    stats_.operations += operations;
    stats_.total_cycles += cycles;
  }

  /// Worst-case latency of `op` across all operand classes (what the
  /// analysis-phase fixed mode charges).
  Cycles WorstCaseLatency(trace::OpClass op) const;

  const FpuConfig& config() const { return config_; }
  const FpuStats& stats() const { return stats_; }
  void ResetStats() { stats_ = FpuStats{}; }

 private:
  static constexpr std::size_t kFirstOp =
      static_cast<std::size_t>(trace::OpClass::kFpAdd);
  static constexpr std::size_t kOps =
      static_cast<std::size_t>(trace::OpClass::kFpSqrt) - kFirstOp + 1;

  FpuConfig config_;
  /// Latency by FPU op (kFpAdd..kFpSqrt) and operand class.
  std::array<std::array<Cycles, trace::kFpuOperandClasses>, kOps> latency_{};
  FpuStats stats_;
};

}  // namespace spta::sim
