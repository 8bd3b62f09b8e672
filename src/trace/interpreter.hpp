// IR interpreter: executes a Program and emits its dynamic trace.
//
// One Interpreter instance performs one run: construct, poke inputs into
// registers/arrays, call Run(), inspect outputs. The emitted Trace is the
// retired-instruction stream consumed by the timing simulator; the
// interpreter itself is functional-only (no timing).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "trace/program.hpp"
#include "trace/record.hpp"

namespace spta::trace {

/// A Program decoded once into the flat form Interpreter::Run executes:
/// the instructions of every block in one contiguous table, beside a table
/// of TraceRecord templates whose static fields (pc, op class, register
/// operands) are already filled in. Running a block then copies its
/// templates and writes only the dynamic fields. Decoding validates the
/// program (Program::Validate), which is what lets the interpreter skip
/// per-step register, array-id and terminator checks. Immutable after
/// construction, so one instance can serve any number of interpreters on
/// any number of threads.
class DecodedProgram {
 public:
  DecodedProgram() = default;
  /// `program` must be laid out (AssignLayout): the templates carry its
  /// final fetch addresses. The decoded form does not refer back to it.
  explicit DecodedProgram(const Program& program);

 private:
  friend class Interpreter;
  struct Block {
    std::uint32_t first = 0;  ///< Index of the block's first instruction.
    std::uint32_t size = 0;   ///< Instructions, terminator included.
  };

  std::string name_;
  std::vector<DataObject> arrays_;
  BlockId entry_ = 0;
  std::vector<Block> blocks_;
  std::vector<IrInst> insts_;
  std::vector<TraceRecord> templates_;
};

class Interpreter {
 public:
  struct Options {
    /// Abort (contract failure) if the program executes more than this many
    /// instructions — catches unbounded loops in workload definitions,
    /// which would be WCET-analysis nonsense anyway.
    std::size_t max_steps = 50'000'000;
  };

  /// Binds to `program`, decoding a private copy of it (must be validated
  /// and laid out, which Program::Build guarantees). Arrays start zeroed,
  /// registers start at zero.
  explicit Interpreter(const Program& program)
      : Interpreter(program, Options{}) {}
  Interpreter(const Program& program, Options options);

  /// Binds to an already decoded program, which must outlive the
  /// interpreter. Callers that run one program many times decode it once.
  explicit Interpreter(const DecodedProgram& program)
      : Interpreter(program, Options{}) {}
  Interpreter(const DecodedProgram& program, Options options);

  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  // --- Input injection (before Run) -------------------------------------
  void SetIntReg(RegId reg, std::int64_t value);
  void SetFpReg(RegId reg, double value);
  void WriteInt(ArrayId array, std::size_t index, std::int32_t value);
  void WriteFp(ArrayId array, std::size_t index, double value);

  /// Executes from the entry block until kHalt; returns the dynamic trace.
  /// May be called exactly once per interpreter instance.
  Trace Run();

  /// As Run(), but writes the trace into `out`: its records are replaced
  /// and its capacity is kept, so a caller that reuses one Trace across
  /// runs stops allocating once the buffer has grown to the longest path.
  void Run(Trace& out);

  // --- Output inspection (after Run) -------------------------------------
  std::int64_t int_reg(RegId reg) const;
  double fp_reg(RegId reg) const;
  std::int32_t ReadInt(ArrayId array, std::size_t index) const;
  double ReadFp(ArrayId array, std::size_t index) const;

  /// Instructions retired by Run() (0 before).
  std::size_t steps_executed() const { return steps_; }

 private:
  struct ArrayStorage {
    std::vector<std::int32_t> ints;
    std::vector<double> fps;
  };

  void ZeroArrays();
  const DataObject& CheckedArray(ArrayId array, bool want_fp) const;
  std::size_t CheckedIndex(const IrInst& inst) const;

  std::optional<DecodedProgram> owned_;  ///< Set by the Program overload.
  const DecodedProgram& code_;
  Options options_;
  std::array<std::int64_t, kNumRegs> iregs_{};
  std::array<double, kNumRegs> fregs_{};
  std::vector<ArrayStorage> storage_;
  std::size_t steps_ = 0;
  bool has_run_ = false;
};

/// Deterministic operand-difficulty class for a value-dependent FP divide:
/// models SRT-style early termination — quotients with few significant
/// mantissa bits finish sooner. Returns a class in [0, kFpuOperandClasses).
std::uint8_t FpuDivOperandClass(double dividend, double divisor);

/// Operand-difficulty class for FSQRT, from the result's mantissa.
std::uint8_t FpuSqrtOperandClass(double operand);

}  // namespace spta::trace
