#include "sim/fpu.hpp"

#include "common/assert.hpp"

namespace spta::sim {

Fpu::Fpu(const FpuConfig& config) : config_(config) {
  // Fixed-latency ops always charge their single latency; in worst-case
  // mode the jittery ops charge their maximum regardless of operands.
  for (std::size_t i = 0; i < latency_.size(); ++i) {
    const auto op = static_cast<trace::OpClass>(kFirstOp + i);
    for (std::uint8_t cls = 0; cls < trace::kFpuOperandClasses; ++cls) {
      Cycles lat = WorstCaseLatency(op);
      if (config_.mode != FpuMode::kWorstCaseFixed &&
          trace::IsJitteryFpu(op)) {
        const auto c = static_cast<Cycles>(cls);
        lat = op == trace::OpClass::kFpDiv
                  ? config_.div_base + config_.div_step * c
                  : config_.sqrt_base + config_.sqrt_step * c;
      }
      latency_[i][cls] = lat;
    }
  }
}

Cycles Fpu::WorstCaseLatency(trace::OpClass op) const {
  const auto worst_class = static_cast<Cycles>(trace::kFpuOperandClasses - 1);
  switch (op) {
    case trace::OpClass::kFpAdd:
      return config_.add_latency;
    case trace::OpClass::kFpMul:
      return config_.mul_latency;
    case trace::OpClass::kFpDiv:
      return config_.div_base + config_.div_step * worst_class;
    case trace::OpClass::kFpSqrt:
      return config_.sqrt_base + config_.sqrt_step * worst_class;
    default:
      SPTA_REQUIRE_MSG(false, "not an FPU op");
      return 0;
  }
}

}  // namespace spta::sim
