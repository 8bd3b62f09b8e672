// IR interpreter: executes a Program and emits its dynamic trace.
//
// One Interpreter instance performs one run: construct, poke inputs into
// registers/arrays, call Run(), inspect outputs. The run is emitted as a
// block stream (BlockTrace: the executed blocks plus the per-run columns),
// which the timing simulator retires directly; the record form (Trace,
// one TraceRecord per retired instruction) is that stream expanded. The
// interpreter itself is functional-only (no timing).
//
// Execution runs on a compact decoded form (DecodedProgram): 16-byte
// instructions whose FP constants and array descriptors live in side
// tables, block headers that carry each block's static counts of memory
// operations, conditional branches and FDIV/FSQRT, and one zeroed buffer
// per element type holding every array (ArrayStore). Dispatch is
// threaded: each operation's handler jumps straight to the next one's, and
// only a block's terminator leaves it, so no handler tests for the end of
// the block. The registers sit in two flat files, and the loop makes no
// call unless a check fails. Each executed block costs one step-limit
// check and one capacity check per block-stream column; each memory
// operation one bounds check against its array's descriptor. Every check
// aborts with the message of the IR-level contract it enforces.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "trace/program.hpp"
#include "trace/record.hpp"

namespace spta::trace {

class DecodedProgram;

/// The allocator of the block-stream columns. Resizing a column leaves
/// the new elements uninitialized, so the interpreter can open a column up
/// to its capacity and write through a raw pointer without zeroing it
/// first; every element it keeps was written.
template <class T>
struct ColumnAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = ColumnAllocator<U>;
  };
  ColumnAllocator() = default;
  template <class U>
  ColumnAllocator(const ColumnAllocator<U>&) noexcept {}
  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// One per-run column of a block stream.
template <class T>
using Column = std::vector<T, ColumnAllocator<T>>;

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
  Column<Address> mem_addrs;         ///< Loads and stores.
  Column<std::uint8_t> taken;        ///< Conditional branches (0/1).
  Column<std::uint8_t> fpu_classes;  ///< FDIV and FSQRT.
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

/// One decoded IR instruction: 16 bytes, what the interpreter reads per
/// step. The register fields are the IrInst's; fields an operation does
/// not use are zero.
struct DecodedInst {
  IrOp op = IrOp::kHalt;
  RegId dst = 0;
  RegId src1 = 0;
  RegId src2 = 0;
  /// kFConst: index into the program's FP constant table. Loads and
  /// stores: the array (its descriptor is in the ArrayStore). kJump and
  /// the conditional branches: the taken target.
  std::uint32_t aux = 0;
  /// kIConst, kIAddImm and the shifts: the immediate. Loads and stores:
  /// the element offset. Conditional branches: the fall-through target.
  std::int64_t imm = 0;
};
static_assert(sizeof(DecodedInst) == 16);

/// A Program decoded once into the flat form Interpreter::Run executes:
/// the DecodedInsts of every block in one contiguous table, beside a table
/// of TraceRecord templates whose static fields (pc, op class, register
/// operands) are already filled in. The templates are also what a block
/// stream expands through, and what sim::RetirePlan precomputes a block's
/// timing from. Decoding validates the program (Program::Validate), which
/// is what lets the interpreter skip per-step register, array-id, array
/// type and terminator checks. Immutable after construction, so one
/// instance can serve any number of interpreters on any number of threads.
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
  /// Block `b`'s decoded instructions, terminator last.
  std::span<const DecodedInst> Insts(BlockId b) const {
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
    /// Static counts of the block's block-stream column entries: loads
    /// and stores, conditional branches, FDIVs and FSQRTs.
    std::uint32_t mem_ops = 0;
    std::uint32_t cond_branches = 0;
    std::uint32_t fpu_classes = 0;
  };

  std::uint64_t id_ = 0;
  std::string name_;
  std::vector<DataObject> arrays_;
  BlockId entry_ = 0;
  std::vector<Block> blocks_;
  std::vector<DecodedInst> insts_;
  std::vector<double> fp_consts_;  ///< kFConst values, by DecodedInst::aux.
  std::vector<TraceRecord> templates_;
};

/// The data arrays of a program's runs: one buffer per element type that
/// holds every array of that type, and one descriptor per array. An
/// Interpreter sizes and zeroes the store it runs on, so a caller that
/// runs one program many times keeps one store for it and reuses the
/// buffers instead of allocating new arrays per run.
class ArrayStore {
 private:
  friend class Interpreter;
  /// One array's descriptor: what a load or store needs besides the index
  /// and the element size, which the operation implies.
  struct Array {
    Address base = 0;          ///< Byte base address (the layout's).
    std::uint64_t count = 0;   ///< Elements.
    void* data = nullptr;      ///< First element, in the matching buffer.
  };

  /// Sizes the buffers for `arrays`, zeroes them and rebuilds the
  /// descriptors.
  void Reset(std::span<const DataObject> arrays);

  std::vector<std::int32_t> ints_;
  std::vector<double> fps_;
  std::vector<Array> arrays_;
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

  /// As above, with the arrays in `arrays`, which are zeroed here and must
  /// outlive the interpreter. Callers that run one program many times
  /// keep one store for it.
  Interpreter(const DecodedProgram& program, ArrayStore& arrays)
      : Interpreter(program, arrays, Options{}) {}
  Interpreter(const DecodedProgram& program, ArrayStore& arrays,
              Options options);

  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  // --- Input injection (before Run) -------------------------------------
  void SetIntReg(RegId reg, std::int64_t value);
  void SetFpReg(RegId reg, double value);
  void WriteInt(ArrayId array, std::size_t index, std::int32_t value);
  void WriteFp(ArrayId array, std::size_t index, double value);
  /// Array `array`'s elements, for writing inputs in bulk: one type check
  /// per array instead of one checked call per element.
  std::span<std::int32_t> IntArray(ArrayId array);
  std::span<double> FpArray(ArrayId array);

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
  void Execute(BlockTrace& out);
  /// Array `array`'s elements, after checking its id and type.
  template <class T>
  std::span<T> Elements(ArrayId array) const;

  std::optional<DecodedProgram> owned_;  ///< Set by the Program overload.
  const DecodedProgram& code_;
  Options options_;
  std::array<std::int64_t, kNumRegs> iregs_{};
  std::array<double, kNumRegs> fregs_{};
  ArrayStore own_arrays_;  ///< Used when no store is given.
  ArrayStore& arrays_;
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
