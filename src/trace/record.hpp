// Dynamic instruction trace records.
//
// The timing simulator is trace-driven: workloads are lowered to a stream of
// TraceRecords (one per retired instruction) which flow through the cache /
// TLB / FPU / memory timing models. A record carries exactly the information
// those models need — fetch address, operation class, effective data address
// and the FPU operand class that drives value-dependent FDIV/FSQRT latency.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace spta::trace {

/// Classification of a retired instruction for timing purposes.
enum class OpClass : std::uint8_t {
  kIntAlu,   ///< Single-cycle integer operation.
  kIntMul,   ///< Integer multiply (fixed multi-cycle).
  kIntDiv,   ///< Integer divide (fixed multi-cycle).
  kLoad,     ///< Memory load (data cache access).
  kStore,    ///< Memory store (write-through, store buffer).
  kBranch,   ///< Control transfer.
  kFpAdd,    ///< FP add/sub/convert (fixed latency).
  kFpMul,    ///< FP multiply (fixed latency).
  kFpDiv,    ///< FP divide — value-dependent latency (jittery in DET mode).
  kFpSqrt,   ///< FP square root — value-dependent latency.
  kNop,      ///< Pipeline bubble / no-op.
};

/// Short mnemonic for an op class ("alu", "ld", "fdiv", ...).
const char* ToString(OpClass op);

/// True for the two value-dependent FPU operations.
bool IsJitteryFpu(OpClass op);

/// Register-operand encoding for dependence (hazard) modeling: low 6 bits
/// hold the register index, kFpRegFlag marks the FP file, kNoReg = none.
/// Synthetic traces may leave everything at kNoReg — timing models then
/// simply see no dependences.
inline constexpr std::uint8_t kNoReg = 0xff;
inline constexpr std::uint8_t kFpRegFlag = 0x40;

/// One retired instruction. The two addresses come first so the six
/// one-byte fields pack behind them into 24 bytes.
struct TraceRecord {
  Address pc = 0;          ///< Instruction fetch address.
  Address mem_addr = 0;    ///< Effective address (loads/stores only).
  OpClass op = OpClass::kNop;
  /// Operand "difficulty" class for FDIV/FSQRT, in [0, kFpuOperandClasses):
  /// higher classes take more cycles on a value-dependent FPU.
  std::uint8_t fpu_operand_class = 0;
  bool branch_taken = false;  ///< Valid for kBranch.
  /// Destination / source registers (kNoReg when absent), used for the
  /// load-use hazard model (LEON3's load delay slot).
  std::uint8_t dst_reg = kNoReg;
  std::uint8_t src1_reg = kNoReg;
  std::uint8_t src2_reg = kNoReg;

  /// True when this record reads register `reg` (encoded form).
  bool Reads(std::uint8_t reg) const {
    return reg != kNoReg && (src1_reg == reg || src2_reg == reg);
  }

  /// Field-wise equality (kernel mining verifies candidate repetitions by
  /// comparing record sequences).
  bool operator==(const TraceRecord& other) const = default;
};

static_assert(sizeof(TraceRecord) == 24,
              "a frame is ~225k records; keep the record at 24 bytes");

/// A contiguous run of records. sim::Core::Run retires a list of these
/// back to back, so a frame made of several buffers never has to be
/// copied into one (see trace::Segment for frames with block streams).
using RecordSpan = std::span<const TraceRecord>;

/// Number of distinct FPU operand-difficulty classes the timing model knows.
inline constexpr std::uint8_t kFpuOperandClasses = 4;

/// A dynamic trace: the retired-instruction stream of one program run,
/// plus the path signature used by MBPTA per-path analysis.
struct Trace {
  std::vector<TraceRecord> records;
  /// Hash of the sequence of basic blocks executed: runs that follow the
  /// same control-flow path share a signature.
  std::uint64_t path_signature = 0;
  /// Total retired instructions (== records.size(), kept for clarity).
  std::size_t instruction_count() const { return records.size(); }
};

}  // namespace spta::trace
