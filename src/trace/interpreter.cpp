#include "trace/interpreter.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <iterator>

#include "common/assert.hpp"
#include "common/hash.hpp"

namespace spta::trace {
namespace {

std::uint8_t MantissaClass(double value) {
  if (value == 0.0 || !std::isfinite(value)) return 0;
  const auto bits = std::bit_cast<std::uint64_t>(value);
  const std::uint64_t mantissa = bits & ((1ULL << 52) - 1);
  if (mantissa == 0) return 0;  // exact power of two: earliest termination
  const int trailing_zeros = std::countr_zero(mantissa);
  // 52 mantissa bits; every ~17 additional significant bits cost one class.
  const int significant = 52 - trailing_zeros;
  const int cls = 1 + (significant - 1) / 17;  // 1..4 -> clamp below
  return static_cast<std::uint8_t>(
      cls >= kFpuOperandClasses ? kFpuOperandClasses - 1 : cls);
}

// The timing op class each IR operation retires as.
OpClass OpClassOf(IrOp op) {
  switch (op) {
    case IrOp::kIMul:
      return OpClass::kIntMul;
    case IrOp::kIDiv:
      return OpClass::kIntDiv;
    case IrOp::kFMul:
      return OpClass::kFpMul;
    case IrOp::kFDiv:
      return OpClass::kFpDiv;
    case IrOp::kFSqrt:
      return OpClass::kFpSqrt;
    case IrOp::kFConst:
    case IrOp::kFMove:
    case IrOp::kFAdd:
    case IrOp::kFSub:
    case IrOp::kFAbs:
    case IrOp::kFNeg:
    case IrOp::kFCmpLt:
    case IrOp::kIToF:
    case IrOp::kFToI:
      return OpClass::kFpAdd;
    case IrOp::kLoadI:
    case IrOp::kLoadF:
      return OpClass::kLoad;
    case IrOp::kStoreI:
    case IrOp::kStoreF:
      return OpClass::kStore;
    case IrOp::kJump:
    case IrOp::kBranchIfZero:
    case IrOp::kBranchIfNeg:
    case IrOp::kHalt:
      return OpClass::kBranch;
    case IrOp::kIConst:
    case IrOp::kIMove:
    case IrOp::kIAdd:
    case IrOp::kISub:
    case IrOp::kIAddImm:
    case IrOp::kIAnd:
    case IrOp::kIXor:
    case IrOp::kIShl:
    case IrOp::kIShr:
    case IrOp::kICmpLt:
      break;
  }
  return OpClass::kIntAlu;
}

// Fills the static fields of `rec` from the IR instruction: the timing
// op class, and the register operands in the encoded (file-tagged) form
// the hazard model expects. A kJump's branch is always taken.
void FillStatic(const IrInst& inst, TraceRecord& rec) {
  rec.op = OpClassOf(inst.op);
  rec.branch_taken = inst.op == IrOp::kJump;
  const auto I = [](RegId r) { return static_cast<std::uint8_t>(r); };
  const auto F = [](RegId r) {
    return static_cast<std::uint8_t>(r | kFpRegFlag);
  };
  switch (inst.op) {
    case IrOp::kIConst:
      rec.dst_reg = I(inst.dst);
      break;
    case IrOp::kIMove:
    case IrOp::kIAddImm:
    case IrOp::kIShl:
    case IrOp::kIShr:
      rec.dst_reg = I(inst.dst);
      rec.src1_reg = I(inst.src1);
      break;
    case IrOp::kIAdd:
    case IrOp::kISub:
    case IrOp::kIMul:
    case IrOp::kIDiv:
    case IrOp::kIAnd:
    case IrOp::kIXor:
    case IrOp::kICmpLt:
      rec.dst_reg = I(inst.dst);
      rec.src1_reg = I(inst.src1);
      rec.src2_reg = I(inst.src2);
      break;
    case IrOp::kFConst:
      rec.dst_reg = F(inst.dst);
      break;
    case IrOp::kFMove:
    case IrOp::kFAbs:
    case IrOp::kFNeg:
    case IrOp::kFSqrt:
      rec.dst_reg = F(inst.dst);
      rec.src1_reg = F(inst.src1);
      break;
    case IrOp::kFAdd:
    case IrOp::kFSub:
    case IrOp::kFMul:
    case IrOp::kFDiv:
      rec.dst_reg = F(inst.dst);
      rec.src1_reg = F(inst.src1);
      rec.src2_reg = F(inst.src2);
      break;
    case IrOp::kFCmpLt:
      rec.dst_reg = I(inst.dst);
      rec.src1_reg = F(inst.src1);
      rec.src2_reg = F(inst.src2);
      break;
    case IrOp::kIToF:
      rec.dst_reg = F(inst.dst);
      rec.src1_reg = I(inst.src1);
      break;
    case IrOp::kFToI:
      rec.dst_reg = I(inst.dst);
      rec.src1_reg = F(inst.src1);
      break;
    case IrOp::kLoadI:
      rec.dst_reg = I(inst.dst);
      rec.src1_reg = I(inst.src1);
      break;
    case IrOp::kLoadF:
      rec.dst_reg = F(inst.dst);
      rec.src1_reg = I(inst.src1);
      break;
    case IrOp::kStoreI:
      rec.src1_reg = I(inst.src1);
      rec.src2_reg = I(inst.src2);
      break;
    case IrOp::kStoreF:
      rec.src1_reg = I(inst.src1);
      rec.src2_reg = F(inst.src2);
      break;
    case IrOp::kBranchIfZero:
    case IrOp::kBranchIfNeg:
      rec.src1_reg = I(inst.src1);
      break;
    case IrOp::kJump:
    case IrOp::kHalt:
      break;
  }
}

}  // namespace

std::uint8_t FpuDivOperandClass(double dividend, double divisor) {
  if (divisor == 0.0) return kFpuOperandClasses - 1;
  return MantissaClass(dividend / divisor);
}

std::uint8_t FpuSqrtOperandClass(double operand) {
  return MantissaClass(std::sqrt(std::fabs(operand)));
}

DecodedProgram::DecodedProgram(const Program& program)
    : name_(program.name), arrays_(program.arrays), entry_(program.entry) {
  static std::atomic<std::uint64_t> next_id{1};
  id_ = next_id.fetch_add(1, std::memory_order_relaxed);
  program.Validate();
  const std::size_t n = program.StaticInstructionCount();
  insts_.reserve(n);
  templates_.reserve(n);
  blocks_.reserve(program.blocks.size());
  for (const BasicBlock& block : program.blocks) {
    Block decoded{static_cast<std::uint32_t>(insts_.size()),
                  static_cast<std::uint32_t>(block.insts.size())};
    for (std::size_t i = 0; i < block.insts.size(); ++i) {
      const IrInst& inst = block.insts[i];
      TraceRecord rec;
      rec.pc = block.code_base + 4 * static_cast<Address>(i);
      FillStatic(inst, rec);
      templates_.push_back(rec);
      DecodedInst d{.op = inst.op,
                    .dst = inst.dst,
                    .src1 = inst.src1,
                    .src2 = inst.src2};
      switch (inst.op) {
        case IrOp::kIConst:
        case IrOp::kIAddImm:
        case IrOp::kIShl:
        case IrOp::kIShr:
          d.imm = inst.imm;
          break;
        case IrOp::kFConst:
          d.aux = static_cast<std::uint32_t>(fp_consts_.size());
          fp_consts_.push_back(inst.fimm);
          break;
        case IrOp::kLoadI:
        case IrOp::kStoreI:
        case IrOp::kLoadF:
        case IrOp::kStoreF:
          d.aux = inst.array;
          d.imm = inst.imm;
          ++decoded.mem_ops;
          break;
        case IrOp::kJump:
          d.aux = static_cast<std::uint32_t>(inst.target);
          break;
        case IrOp::kBranchIfZero:
        case IrOp::kBranchIfNeg:
          d.aux = static_cast<std::uint32_t>(inst.target);
          d.imm = inst.target2;
          ++decoded.cond_branches;
          break;
        case IrOp::kFDiv:
        case IrOp::kFSqrt:
          ++decoded.fpu_classes;
          break;
        default:
          break;
      }
      insts_.push_back(d);
    }
    blocks_.push_back(decoded);
  }
}

void DecodedProgram::Expand(const BlockTrace& stream,
                            std::vector<TraceRecord>& out) const {
  out.reserve(out.size() + stream.instructions);
  const Address* mem = stream.mem_addrs.data();
  const std::uint8_t* taken = stream.taken.data();
  const std::uint8_t* fpu = stream.fpu_classes.data();
  for (const BlockId b : stream.blocks) {
    const Block block = blocks_[static_cast<std::size_t>(b)];
    const auto templates = templates_.begin() + block.first;
    const std::size_t emitted = out.size();
    out.insert(out.end(), templates, templates + block.size);
    TraceRecord* rec = out.data() + emitted;
    const DecodedInst* inst = insts_.data() + block.first;
    for (std::uint32_t i = 0; i < block.size; ++i, ++rec, ++inst) {
      switch (inst->op) {
        case IrOp::kLoadI:
        case IrOp::kStoreI:
        case IrOp::kLoadF:
        case IrOp::kStoreF:
          rec->mem_addr = *mem++;
          break;
        case IrOp::kBranchIfZero:
        case IrOp::kBranchIfNeg:
          rec->branch_taken = *taken++ != 0;
          break;
        case IrOp::kFDiv:
        case IrOp::kFSqrt:
          rec->fpu_operand_class = *fpu++;
          break;
        default:
          break;
      }
    }
  }
}

void BlockTrace::Clear() {
  blocks.clear();
  mem_addrs.clear();
  taken.clear();
  fpu_classes.clear();
  path_signature = 0;
  instructions = 0;
}

void Flatten(std::span<const Segment> segments,
             std::vector<TraceRecord>& out) {
  std::size_t records = 0;
  for (const Segment& segment : segments) records += segment.instructions();
  out.clear();
  out.reserve(records);
  for (const Segment& segment : segments) {
    if (segment.blocks != nullptr) {
      segment.blocks->program->Expand(*segment.blocks, out);
    } else {
      out.insert(out.end(), segment.records.begin(), segment.records.end());
    }
  }
}

void ArrayStore::Reset(std::span<const DataObject> arrays) {
  std::size_t ints = 0;
  std::size_t fps = 0;
  for (const DataObject& obj : arrays) {
    (obj.is_fp ? fps : ints) += obj.elem_count;
  }
  // assign() refills in place when the buffer is already large enough.
  ints_.assign(ints, 0);
  fps_.assign(fps, 0.0);
  arrays_.resize(arrays.size());
  ints = 0;
  fps = 0;
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    const DataObject& obj = arrays[a];
    Array& desc = arrays_[a];
    desc.base = obj.base;
    desc.count = obj.elem_count;
    if (obj.is_fp) {
      desc.data = fps_.data() + fps;
      fps += obj.elem_count;
    } else {
      desc.data = ints_.data() + ints;
      ints += obj.elem_count;
    }
  }
}

Interpreter::Interpreter(const Program& program, Options options)
    : owned_(std::in_place, program),
      code_(*owned_),
      options_(options),
      arrays_(own_arrays_) {
  arrays_.Reset(code_.arrays_);
}

Interpreter::Interpreter(const DecodedProgram& program, Options options)
    : Interpreter(program, own_arrays_, options) {}

Interpreter::Interpreter(const DecodedProgram& program, ArrayStore& arrays,
                         Options options)
    : code_(program), options_(options), arrays_(arrays) {
  arrays_.Reset(code_.arrays_);
}

void Interpreter::SetIntReg(RegId reg, std::int64_t value) {
  SPTA_REQUIRE(reg < kNumRegs);
  iregs_[reg] = value;
}

void Interpreter::SetFpReg(RegId reg, double value) {
  SPTA_REQUIRE(reg < kNumRegs);
  fregs_[reg] = value;
}

template <class T>
std::span<T> Interpreter::Elements(ArrayId array) const {
  constexpr bool want_fp = std::is_same_v<T, double>;
  SPTA_REQUIRE(array < code_.arrays_.size());
  const DataObject& obj = code_.arrays_[array];
  SPTA_REQUIRE_MSG(obj.is_fp == want_fp,
                   "array '" << obj.name << "' type mismatch");
  const ArrayStore::Array& desc = arrays_.arrays_[array];
  return {static_cast<T*>(desc.data), desc.count};
}

std::span<std::int32_t> Interpreter::IntArray(ArrayId array) {
  return Elements<std::int32_t>(array);
}

std::span<double> Interpreter::FpArray(ArrayId array) {
  return Elements<double>(array);
}

void Interpreter::WriteInt(ArrayId array, std::size_t index,
                           std::int32_t value) {
  const auto elems = Elements<std::int32_t>(array);
  SPTA_REQUIRE_MSG(index < elems.size(), "index " << index << " in '"
                                                  << code_.arrays_[array].name
                                                  << "'");
  elems[index] = value;
}

void Interpreter::WriteFp(ArrayId array, std::size_t index, double value) {
  const auto elems = Elements<double>(array);
  SPTA_REQUIRE_MSG(index < elems.size(), "index " << index << " in '"
                                                  << code_.arrays_[array].name
                                                  << "'");
  elems[index] = value;
}

std::int64_t Interpreter::int_reg(RegId reg) const {
  SPTA_REQUIRE(reg < kNumRegs);
  return iregs_[reg];
}

double Interpreter::fp_reg(RegId reg) const {
  SPTA_REQUIRE(reg < kNumRegs);
  return fregs_[reg];
}

std::int32_t Interpreter::ReadInt(ArrayId array, std::size_t index) const {
  const auto elems = Elements<std::int32_t>(array);
  SPTA_REQUIRE(index < elems.size());
  return elems[index];
}

double Interpreter::ReadFp(ArrayId array, std::size_t index) const {
  const auto elems = Elements<double>(array);
  SPTA_REQUIRE(index < elems.size());
  return elems[index];
}

Trace Interpreter::Run() {
  Trace out;
  Run(out);
  return out;
}

void Interpreter::Run(Trace& out) {
  BlockTrace stream;
  Execute(stream);
  out.records.clear();
  code_.Expand(stream, out.records);
  out.path_signature = stream.path_signature;
}

void Interpreter::Run(BlockTrace& out) {
  SPTA_REQUIRE_MSG(!owned_, "a block stream needs a DecodedProgram that "
                            "outlives the interpreter");
  Execute(out);
}

namespace {

// The failure paths of the loop's checks, out of line so the loop keeps
// no message-building code. Each re-states its check, so it aborts with
// the same message an inline check would.

[[gnu::cold]] [[gnu::noinline]] void StepLimitExceeded(
    std::uint32_t block_size, std::size_t max_steps, std::size_t steps,
    const std::string& program) {
  SPTA_CHECK_MSG(block_size <= max_steps - steps,
                 "step limit " << max_steps << " exceeded in '" << program
                               << "'");
}

[[gnu::cold]] [[gnu::noinline]] void OutOfBounds(const DataObject& obj,
                                                 std::int64_t idx) {
  SPTA_CHECK_MSG(idx >= 0 && static_cast<std::size_t>(idx) < obj.elem_count,
                 "out-of-bounds access to '" << obj.name << "': index " << idx
                                             << " size " << obj.elem_count);
}

[[gnu::cold]] [[gnu::noinline]] void IntDivisionByZero(std::int64_t divisor) {
  SPTA_CHECK_MSG(divisor != 0, "integer division by zero");
}

[[gnu::cold]] [[gnu::noinline]] void FpDivisionByZero(
    double divisor, const std::string& program) {
  SPTA_CHECK_MSG(divisor != 0.0, "FP division by zero in '" << program
                                                            << "'");
}

/// Appends to one block-stream column through a raw pointer. The column
/// is opened up to its capacity (free: the column allocator does not
/// initialize), Reserve is the one capacity check per block, and Close
/// trims the column to the entries written.
template <class T>
class ColumnWriter {
 public:
  explicit ColumnWriter(Column<T>& column) : column_(column) {
    column_.resize(column_.capacity());
    next_ = column_.data();
    end_ = next_ + column_.size();
  }

  /// Makes room for `n` more entries.
  void Reserve(std::size_t n) {
    if (static_cast<std::size_t>(end_ - next_) < n) [[unlikely]] {
      next_ = Grow(column_, next_, n);
      end_ = column_.data() + column_.size();
    }
  }

  void Push(T value) { *next_++ = value; }

  void Close() {
    column_.resize(static_cast<std::size_t>(next_ - column_.data()));
  }

 private:
  /// Static, so the writer's cursor never escapes the interpreter loop and
  /// can stay in a register.
  [[gnu::noinline]] static T* Grow(Column<T>& column, T* next,
                                   std::size_t n) {
    const auto used = static_cast<std::size_t>(next - column.data());
    column.resize(
        std::max({2 * column.size(), used + n, std::size_t{1024}}));
    return column.data() + used;
  }

  Column<T>& column_;
  T* next_;
  T* end_;
};

}  // namespace

void Interpreter::Execute(BlockTrace& out) {
  SPTA_REQUIRE_MSG(!has_run_, "Interpreter::Run may be called once");
  has_run_ = true;

  out.Clear();
  out.program = &code_;
  ColumnWriter<Address> mem(out.mem_addrs);
  ColumnWriter<std::uint8_t> taken(out.taken);
  ColumnWriter<std::uint8_t> fpu(out.fpu_classes);
  std::int64_t* const ir = iregs_.data();
  double* const fr = fregs_.data();
  const ArrayStore::Array* const arrays = arrays_.arrays_.data();
  const double* const fp_consts = code_.fp_consts_.data();
  const DecodedInst* const insts = code_.insts_.data();
  const std::size_t max_steps = options_.max_steps;
  std::size_t steps = 0;
  std::uint64_t path_hash = 0x5bd1e995u;
  BlockId block_id = code_.entry_;
  const DecodedInst* inst = nullptr;

  // A load or store: the checked element index, and the access's byte
  // address appended to the memory column. Validation matched the
  // operation to the array's type, so the element size is the
  // operation's: 4 bytes for kLoadI/kStoreI, 8 for kLoadF/kStoreF.
  const auto element = [&](const ArrayStore::Array& array,
                           unsigned elem_shift) {
    const std::int64_t idx = ir[inst->src1] + inst->imm;
    if (static_cast<std::uint64_t>(idx) >= array.count) [[unlikely]] {
      OutOfBounds(code_.arrays_[inst->aux], idx);
    }
    const auto i = static_cast<std::size_t>(idx);
    mem.Push(array.base + (static_cast<Address>(i) << elem_shift));
    return i;
  };

  // Threaded dispatch: every handler ends in its own jump to the next
  // instruction's handler. Validation guarantees that a block's last
  // instruction, and only that one, is a terminator, so the handlers of
  // the other operations never check for the end of the block; the
  // terminators go to the next block's entry. The table is in IrOp order.
  static constexpr void* kHandlers[] = {
      &&i_const,  &&i_move,   &&i_add,    &&i_sub,     &&i_mul,
      &&i_div,    &&i_addimm, &&i_and,    &&i_xor,     &&i_shl,
      &&i_shr,    &&i_cmplt,  &&f_const,  &&f_move,    &&f_add,
      &&f_sub,    &&f_mul,    &&f_div,    &&f_sqrt,    &&f_abs,
      &&f_neg,    &&f_cmplt,  &&i_tof,    &&f_toi,     &&load_i,
      &&store_i,  &&load_f,   &&store_f,  &&jump,      &&branch_if_zero,
      &&branch_if_neg, &&halt};
  static_assert(std::size(kHandlers) ==
                static_cast<std::size_t>(IrOp::kHalt) + 1);
#define SPTA_DISPATCH() goto* kHandlers[static_cast<std::uint8_t>(inst->op)]
#define SPTA_NEXT() \
  ++inst;           \
  SPTA_DISPATCH()

enter_block: {
  path_hash = HashCombine(path_hash, static_cast<std::uint64_t>(block_id));
  const DecodedProgram::Block block =
      code_.blocks_[static_cast<std::size_t>(block_id)];
  // One step-limit check per block: aborts exactly when some instruction
  // of this block would be the (max_steps + 1)-th.
  if (block.size > max_steps - steps) [[unlikely]] {
    StepLimitExceeded(block.size, max_steps, steps, code_.name_);
  }
  steps += block.size;
  out.blocks.push_back(block_id);
  mem.Reserve(block.mem_ops);
  taken.Reserve(block.cond_branches);
  fpu.Reserve(block.fpu_classes);
  inst = insts + block.first;
  SPTA_DISPATCH();
}

i_const:
  ir[inst->dst] = inst->imm;
  SPTA_NEXT();
i_move:
  ir[inst->dst] = ir[inst->src1];
  SPTA_NEXT();
i_add:
  ir[inst->dst] = ir[inst->src1] + ir[inst->src2];
  SPTA_NEXT();
i_sub:
  ir[inst->dst] = ir[inst->src1] - ir[inst->src2];
  SPTA_NEXT();
i_mul:
  ir[inst->dst] = ir[inst->src1] * ir[inst->src2];
  SPTA_NEXT();
i_div:
  if (ir[inst->src2] == 0) [[unlikely]] IntDivisionByZero(ir[inst->src2]);
  ir[inst->dst] = ir[inst->src1] / ir[inst->src2];
  SPTA_NEXT();
i_addimm:
  ir[inst->dst] = ir[inst->src1] + inst->imm;
  SPTA_NEXT();
i_and:
  ir[inst->dst] = ir[inst->src1] & ir[inst->src2];
  SPTA_NEXT();
i_xor:
  ir[inst->dst] = ir[inst->src1] ^ ir[inst->src2];
  SPTA_NEXT();
i_shl:
  ir[inst->dst] = static_cast<std::int64_t>(
      static_cast<std::uint64_t>(ir[inst->src1]) << (inst->imm & 63));
  SPTA_NEXT();
i_shr:
  ir[inst->dst] = static_cast<std::int64_t>(
      static_cast<std::uint64_t>(ir[inst->src1]) >> (inst->imm & 63));
  SPTA_NEXT();
i_cmplt:
  ir[inst->dst] = ir[inst->src1] < ir[inst->src2] ? 1 : 0;
  SPTA_NEXT();
f_const:
  fr[inst->dst] = fp_consts[inst->aux];
  SPTA_NEXT();
f_move:
  fr[inst->dst] = fr[inst->src1];
  SPTA_NEXT();
f_add:
  fr[inst->dst] = fr[inst->src1] + fr[inst->src2];
  SPTA_NEXT();
f_sub:
  fr[inst->dst] = fr[inst->src1] - fr[inst->src2];
  SPTA_NEXT();
f_mul:
  fr[inst->dst] = fr[inst->src1] * fr[inst->src2];
  SPTA_NEXT();
f_div: {
  const double a = fr[inst->src1];
  const double b = fr[inst->src2];
  if (b == 0.0) [[unlikely]] FpDivisionByZero(b, code_.name_);
  fpu.Push(FpuDivOperandClass(a, b));
  fr[inst->dst] = a / b;
  SPTA_NEXT();
}
f_sqrt: {
  const double a = fr[inst->src1];
  fpu.Push(FpuSqrtOperandClass(a));
  fr[inst->dst] = std::sqrt(std::fabs(a));
  SPTA_NEXT();
}
f_abs:
  fr[inst->dst] = std::fabs(fr[inst->src1]);
  SPTA_NEXT();
f_neg:
  fr[inst->dst] = -fr[inst->src1];
  SPTA_NEXT();
f_cmplt:
  ir[inst->dst] = fr[inst->src1] < fr[inst->src2] ? 1 : 0;
  SPTA_NEXT();
i_tof:
  fr[inst->dst] = static_cast<double>(ir[inst->src1]);
  SPTA_NEXT();
f_toi:
  ir[inst->dst] = static_cast<std::int64_t>(fr[inst->src1]);
  SPTA_NEXT();
load_i: {
  const ArrayStore::Array& array = arrays[inst->aux];
  ir[inst->dst] = static_cast<const std::int32_t*>(array.data)[element(array, 2)];
  SPTA_NEXT();
}
store_i: {
  const ArrayStore::Array& array = arrays[inst->aux];
  static_cast<std::int32_t*>(array.data)[element(array, 2)] =
      static_cast<std::int32_t>(ir[inst->src2]);
  SPTA_NEXT();
}
load_f: {
  const ArrayStore::Array& array = arrays[inst->aux];
  fr[inst->dst] = static_cast<const double*>(array.data)[element(array, 3)];
  SPTA_NEXT();
}
store_f: {
  const ArrayStore::Array& array = arrays[inst->aux];
  static_cast<double*>(array.data)[element(array, 3)] = fr[inst->src2];
  SPTA_NEXT();
}
jump:
  block_id = static_cast<BlockId>(inst->aux);
  goto enter_block;
branch_if_zero: {
  const bool is_taken = ir[inst->src1] == 0;
  taken.Push(is_taken ? 1 : 0);
  block_id = static_cast<BlockId>(is_taken ? inst->aux : inst->imm);
  goto enter_block;
}
branch_if_neg: {
  const bool is_taken = ir[inst->src1] < 0;
  taken.Push(is_taken ? 1 : 0);
  block_id = static_cast<BlockId>(is_taken ? inst->aux : inst->imm);
  goto enter_block;
}
halt:
#undef SPTA_NEXT
#undef SPTA_DISPATCH
  mem.Close();
  taken.Close();
  fpu.Close();
  steps_ = steps;
  out.path_signature = path_hash;
  out.instructions = steps;
}

}  // namespace spta::trace
