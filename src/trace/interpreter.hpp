// IR interpreter: executes a Program and emits its dynamic trace.
//
// One Interpreter instance performs one run: construct, poke inputs into
// registers/arrays, call Run(), inspect outputs. The run is emitted as a
// block stream (BlockTrace: the executed blocks plus the per-run columns),
// which the timing simulator retires directly; the record form (Trace,
// one TraceRecord per retired instruction) is that stream expanded. The
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

class DecodedProgram;

/// One job run as a block stream: the basic blocks it executed, in order,
/// and the three per-run columns a block's record templates lack. Each
/// column holds one entry per executed instruction of its kind, in
/// execution order. Expanding the stream through the program's templates
/// (DecodedProgram::Expand) gives exactly the run's records, so the
/// stream is the compact in-memory form of a job trace and the records
/// stay the interchange form. Clear keeps every buffer's capacity.
struct BlockTrace {
  /// The decoded program the block ids index; must outlive the stream.
  const DecodedProgram* program = nullptr;
  std::vector<BlockId> blocks;
  std::vector<Address> mem_addrs;           ///< Loads and stores.
  std::vector<std::uint8_t> taken;          ///< Conditional branches (0/1).
  std::vector<std::uint8_t> fpu_classes;    ///< FDIV and FSQRT.
  std::uint64_t path_signature = 0;  ///< As Trace::path_signature.
  std::size_t instructions = 0;      ///< Records the stream expands to.

  void Clear();
};

/// One piece of a frame: a record span, or a job's block stream when
/// `blocks` is set. sim::Core::Run retires a segment list as one stream.
struct Segment {
  RecordSpan records;
  const BlockTrace* blocks = nullptr;

  std::size_t instructions() const {
    return blocks != nullptr ? blocks->instructions : records.size();
  }
};

/// Replaces `out` with the segments' records in order (block streams
/// expanded through their programs).
void Flatten(std::span<const Segment> segments, std::vector<TraceRecord>& out);

/// A Program decoded once into the flat form Interpreter::Run executes:
/// the instructions of every block in one contiguous table, beside a table
/// of TraceRecord templates whose static fields (pc, op class, register
/// operands) are already filled in. The templates are also what a block
/// stream expands through, and what sim::RetirePlan precomputes a block's
/// timing from. Decoding validates the program (Program::Validate), which
/// is what lets the interpreter skip per-step register, array-id and
/// terminator checks. Immutable after construction, so one instance can
/// serve any number of interpreters on any number of threads.
class DecodedProgram {
 public:
  DecodedProgram() = default;
  /// `program` must be laid out (AssignLayout): the templates carry its
  /// final fetch addresses. The decoded form does not refer back to it.
  explicit DecodedProgram(const Program& program);

  /// Identifies the decoded content: unique per decoding in the process,
  /// shared by copies. Zero for a default-constructed instance.
  std::uint64_t id() const { return id_; }

  std::size_t block_count() const { return blocks_.size(); }
  /// Block `b`'s record templates: every field but mem_addr,
  /// fpu_operand_class and a conditional branch's branch_taken.
  std::span<const TraceRecord> Templates(BlockId b) const {
    const Block& block = blocks_[static_cast<std::size_t>(b)];
    return {templates_.data() + block.first, block.size};
  }
  /// Block `b`'s IR instructions, terminator last.
  std::span<const IrInst> Insts(BlockId b) const {
    const Block& block = blocks_[static_cast<std::size_t>(b)];
    return {insts_.data() + block.first, block.size};
  }

  /// Appends the records of `stream` (a run of this program) to `out`.
  void Expand(const BlockTrace& stream, std::vector<TraceRecord>& out) const;

 private:
  friend class Interpreter;
  struct Block {
    std::uint32_t first = 0;  ///< Index of the block's first instruction.
    std::uint32_t size = 0;   ///< Instructions, terminator included.
  };

  std::uint64_t id_ = 0;
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
  /// and its capacity is kept. The records are the expanded block stream.
  void Run(Trace& out);

  /// The one execution loop: runs the program and writes its block stream
  /// into `out` (buffers replaced, capacity kept, so a caller that reuses
  /// one stream stops allocating once it has held the longest path).
  /// Requires an interpreter bound to a DecodedProgram, which the stream
  /// points at.
  void Run(BlockTrace& out);

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
  void Execute(BlockTrace& out);
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
