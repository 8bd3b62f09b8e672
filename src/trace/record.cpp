#include "trace/record.hpp"

namespace spta::trace {

const char* ToString(OpClass op) {
  switch (op) {
    case OpClass::kIntAlu:
      return "alu";
    case OpClass::kIntMul:
      return "imul";
    case OpClass::kIntDiv:
      return "idiv";
    case OpClass::kLoad:
      return "ld";
    case OpClass::kStore:
      return "st";
    case OpClass::kBranch:
      return "br";
    case OpClass::kFpAdd:
      return "fadd";
    case OpClass::kFpMul:
      return "fmul";
    case OpClass::kFpDiv:
      return "fdiv";
    case OpClass::kFpSqrt:
      return "fsqrt";
    case OpClass::kNop:
      return "nop";
  }
  return "?";
}

bool IsJitteryFpu(OpClass op) {
  return op == OpClass::kFpDiv || op == OpClass::kFpSqrt;
}

}  // namespace spta::trace
