#include "trace/interpreter.hpp"

#include <atomic>
#include <bit>
#include <cmath>

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
    blocks_.push_back({static_cast<std::uint32_t>(insts_.size()),
                       static_cast<std::uint32_t>(block.insts.size())});
    for (std::size_t i = 0; i < block.insts.size(); ++i) {
      TraceRecord rec;
      rec.pc = block.code_base + 4 * static_cast<Address>(i);
      FillStatic(block.insts[i], rec);
      insts_.push_back(block.insts[i]);
      templates_.push_back(rec);
    }
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
    const IrInst* inst = insts_.data() + block.first;
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

Interpreter::Interpreter(const Program& program, Options options)
    : owned_(std::in_place, program), code_(*owned_), options_(options) {
  ZeroArrays();
}

Interpreter::Interpreter(const DecodedProgram& program, Options options)
    : code_(program), options_(options) {
  ZeroArrays();
}

void Interpreter::ZeroArrays() {
  storage_.resize(code_.arrays_.size());
  for (std::size_t a = 0; a < code_.arrays_.size(); ++a) {
    const DataObject& obj = code_.arrays_[a];
    if (obj.is_fp) {
      storage_[a].fps.assign(obj.elem_count, 0.0);
    } else {
      storage_[a].ints.assign(obj.elem_count, 0);
    }
  }
}

void Interpreter::SetIntReg(RegId reg, std::int64_t value) {
  SPTA_REQUIRE(reg < kNumRegs);
  iregs_[reg] = value;
}

void Interpreter::SetFpReg(RegId reg, double value) {
  SPTA_REQUIRE(reg < kNumRegs);
  fregs_[reg] = value;
}

const DataObject& Interpreter::CheckedArray(ArrayId array,
                                            bool want_fp) const {
  SPTA_REQUIRE(array < code_.arrays_.size());
  const DataObject& obj = code_.arrays_[array];
  SPTA_REQUIRE_MSG(obj.is_fp == want_fp,
                   "array '" << obj.name << "' type mismatch");
  return obj;
}

void Interpreter::WriteInt(ArrayId array, std::size_t index,
                           std::int32_t value) {
  const DataObject& obj = CheckedArray(array, false);
  SPTA_REQUIRE_MSG(index < obj.elem_count, "index " << index << " in '"
                                                    << obj.name << "'");
  storage_[array].ints[index] = value;
}

void Interpreter::WriteFp(ArrayId array, std::size_t index, double value) {
  const DataObject& obj = CheckedArray(array, true);
  SPTA_REQUIRE_MSG(index < obj.elem_count, "index " << index << " in '"
                                                    << obj.name << "'");
  storage_[array].fps[index] = value;
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
  const DataObject& obj = CheckedArray(array, false);
  SPTA_REQUIRE(index < obj.elem_count);
  return storage_[array].ints[index];
}

double Interpreter::ReadFp(ArrayId array, std::size_t index) const {
  const DataObject& obj = CheckedArray(array, true);
  SPTA_REQUIRE(index < obj.elem_count);
  return storage_[array].fps[index];
}

std::size_t Interpreter::CheckedIndex(const IrInst& inst) const {
  const DataObject& obj = code_.arrays_[inst.array];
  const std::int64_t idx = iregs_[inst.src1] + inst.imm;
  SPTA_CHECK_MSG(idx >= 0 && static_cast<std::size_t>(idx) < obj.elem_count,
                 "out-of-bounds access to '" << obj.name << "': index " << idx
                                             << " size " << obj.elem_count);
  return static_cast<std::size_t>(idx);
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

void Interpreter::Execute(BlockTrace& out) {
  SPTA_REQUIRE_MSG(!has_run_, "Interpreter::Run may be called once");
  has_run_ = true;

  out.Clear();
  out.program = &code_;
  std::uint64_t path_hash = 0x5bd1e995u;
  BlockId block_id = code_.entry_;
  bool halted = false;

  while (!halted) {
    path_hash = HashCombine(path_hash, static_cast<std::uint64_t>(block_id));
    const DecodedProgram::Block block =
        code_.blocks_[static_cast<std::size_t>(block_id)];
    // One step-limit check per block: aborts exactly when some instruction
    // of this block would be the (max_steps + 1)-th.
    SPTA_CHECK_MSG(block.size <= options_.max_steps - steps_,
                   "step limit " << options_.max_steps << " exceeded in '"
                                 << code_.name_ << "'");
    steps_ += block.size;
    out.blocks.push_back(block_id);
    const IrInst* inst = code_.insts_.data() + block.first;

    for (std::uint32_t i = 0; i < block.size; ++i, ++inst) {
      switch (inst->op) {
        case IrOp::kIConst:
          iregs_[inst->dst] = inst->imm;
          break;
        case IrOp::kIMove:
          iregs_[inst->dst] = iregs_[inst->src1];
          break;
        case IrOp::kIAdd:
          iregs_[inst->dst] = iregs_[inst->src1] + iregs_[inst->src2];
          break;
        case IrOp::kISub:
          iregs_[inst->dst] = iregs_[inst->src1] - iregs_[inst->src2];
          break;
        case IrOp::kIMul:
          iregs_[inst->dst] = iregs_[inst->src1] * iregs_[inst->src2];
          break;
        case IrOp::kIDiv:
          SPTA_CHECK_MSG(iregs_[inst->src2] != 0, "integer division by zero");
          iregs_[inst->dst] = iregs_[inst->src1] / iregs_[inst->src2];
          break;
        case IrOp::kIAddImm:
          iregs_[inst->dst] = iregs_[inst->src1] + inst->imm;
          break;
        case IrOp::kIAnd:
          iregs_[inst->dst] = iregs_[inst->src1] & iregs_[inst->src2];
          break;
        case IrOp::kIXor:
          iregs_[inst->dst] = iregs_[inst->src1] ^ iregs_[inst->src2];
          break;
        case IrOp::kIShl:
          iregs_[inst->dst] = static_cast<std::int64_t>(
              static_cast<std::uint64_t>(iregs_[inst->src1])
              << (inst->imm & 63));
          break;
        case IrOp::kIShr:
          iregs_[inst->dst] = static_cast<std::int64_t>(
              static_cast<std::uint64_t>(iregs_[inst->src1]) >>
              (inst->imm & 63));
          break;
        case IrOp::kICmpLt:
          iregs_[inst->dst] =
              iregs_[inst->src1] < iregs_[inst->src2] ? 1 : 0;
          break;
        case IrOp::kFConst:
          fregs_[inst->dst] = inst->fimm;
          break;
        case IrOp::kFMove:
          fregs_[inst->dst] = fregs_[inst->src1];
          break;
        case IrOp::kFAdd:
          fregs_[inst->dst] = fregs_[inst->src1] + fregs_[inst->src2];
          break;
        case IrOp::kFSub:
          fregs_[inst->dst] = fregs_[inst->src1] - fregs_[inst->src2];
          break;
        case IrOp::kFMul:
          fregs_[inst->dst] = fregs_[inst->src1] * fregs_[inst->src2];
          break;
        case IrOp::kFDiv: {
          const double a = fregs_[inst->src1];
          const double b = fregs_[inst->src2];
          SPTA_CHECK_MSG(b != 0.0, "FP division by zero in '" << code_.name_
                                                              << "'");
          out.fpu_classes.push_back(FpuDivOperandClass(a, b));
          fregs_[inst->dst] = a / b;
          break;
        }
        case IrOp::kFSqrt: {
          const double a = fregs_[inst->src1];
          out.fpu_classes.push_back(FpuSqrtOperandClass(a));
          fregs_[inst->dst] = std::sqrt(std::fabs(a));
          break;
        }
        case IrOp::kFAbs:
          fregs_[inst->dst] = std::fabs(fregs_[inst->src1]);
          break;
        case IrOp::kFNeg:
          fregs_[inst->dst] = -fregs_[inst->src1];
          break;
        case IrOp::kFCmpLt:
          iregs_[inst->dst] =
              fregs_[inst->src1] < fregs_[inst->src2] ? 1 : 0;
          break;
        case IrOp::kIToF:
          fregs_[inst->dst] = static_cast<double>(iregs_[inst->src1]);
          break;
        case IrOp::kFToI:
          iregs_[inst->dst] = static_cast<std::int64_t>(fregs_[inst->src1]);
          break;
        case IrOp::kLoadI: {
          const std::size_t idx = CheckedIndex(*inst);
          iregs_[inst->dst] = storage_[inst->array].ints[idx];
          out.mem_addrs.push_back(code_.arrays_[inst->array].base + idx * 4);
          break;
        }
        case IrOp::kStoreI: {
          const std::size_t idx = CheckedIndex(*inst);
          storage_[inst->array].ints[idx] =
              static_cast<std::int32_t>(iregs_[inst->src2]);
          out.mem_addrs.push_back(code_.arrays_[inst->array].base + idx * 4);
          break;
        }
        case IrOp::kLoadF: {
          const std::size_t idx = CheckedIndex(*inst);
          fregs_[inst->dst] = storage_[inst->array].fps[idx];
          out.mem_addrs.push_back(code_.arrays_[inst->array].base + idx * 8);
          break;
        }
        case IrOp::kStoreF: {
          const std::size_t idx = CheckedIndex(*inst);
          storage_[inst->array].fps[idx] = fregs_[inst->src2];
          out.mem_addrs.push_back(code_.arrays_[inst->array].base + idx * 8);
          break;
        }
        case IrOp::kJump:
          block_id = inst->target;
          break;
        case IrOp::kBranchIfZero: {
          const bool taken = iregs_[inst->src1] == 0;
          out.taken.push_back(taken ? 1 : 0);
          block_id = taken ? inst->target : inst->target2;
          break;
        }
        case IrOp::kBranchIfNeg: {
          const bool taken = iregs_[inst->src1] < 0;
          out.taken.push_back(taken ? 1 : 0);
          block_id = taken ? inst->target : inst->target2;
          break;
        }
        case IrOp::kHalt:
          halted = true;
          break;
      }
    }
  }
  out.path_signature = path_hash;
  out.instructions = steps_;
}

}  // namespace spta::trace
