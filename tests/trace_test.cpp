// Tests for the program IR, the interpreter and the synthetic trace
// generators: structural validation, functional correctness of executed
// programs, trace contents and path signatures.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "trace/interpreter.hpp"
#include "trace/program.hpp"
#include "trace/record.hpp"
#include "trace/synthetic.hpp"

namespace spta::trace {
namespace {

// Builds: r20 = sum of ints 1..n (loop with branch).
Program SumProgram(int n) {
  ProgramBuilder b("sum");
  const BlockId entry = b.NewBlock();
  const BlockId loop = b.NewBlock();
  const BlockId body = b.NewBlock();
  const BlockId exit = b.NewBlock();
  b.SetEntry(entry);
  b.SwitchTo(entry);
  b.IConst(1, 1);   // i = 1
  b.IConst(2, n);   // bound
  b.IConst(20, 0);  // acc
  b.Jump(loop);
  b.SwitchTo(loop);
  b.ICmpLt(3, 2, 1);  // bound < i ?
  b.BranchIfZero(3, body, exit);
  b.SwitchTo(body);
  b.IAdd(20, 20, 1);
  b.IAddImm(1, 1, 1);
  b.Jump(loop);
  b.SwitchTo(exit);
  b.Halt();
  return b.Build();
}

TEST(ProgramTest, BuildValidatesAndAssignsLayout) {
  const Program p = SumProgram(10);
  EXPECT_EQ(p.blocks.size(), 4u);
  EXPECT_GT(p.StaticInstructionCount(), 0u);
  // Blocks are laid out contiguously at 4 bytes/insn.
  EXPECT_EQ(p.blocks[1].code_base,
            p.blocks[0].code_base + 4 * p.blocks[0].insts.size());
}

TEST(ProgramTest, ArraysAreCacheLineAligned) {
  ProgramBuilder b("align");
  b.AddIntArray("a", 3);  // 12 bytes
  b.AddFpArray("b", 5);
  const BlockId blk = b.NewBlock();
  b.SetEntry(blk);
  b.SwitchTo(blk);
  b.Halt();
  const Program p = b.Build();
  EXPECT_EQ(p.arrays[0].base % 64, 0u);
  EXPECT_EQ(p.arrays[1].base % 64, 0u);
  EXPECT_GE(p.arrays[1].base, p.arrays[0].base + 12);
}

TEST(ProgramTest, LinkOffsetShiftsData) {
  const Program p0 = SumProgram(1);
  ProgramBuilder b("shifted");
  b.AddIntArray("x", 4);
  const BlockId blk = b.NewBlock();
  b.SetEntry(blk);
  b.SwitchTo(blk);
  b.Halt();
  const Program p1 = b.Build(4096);
  EXPECT_EQ(p1.arrays[0].base % 64, 0u);
  EXPECT_GE(p1.arrays[0].base, 0x40100000ULL + 4096);
  (void)p0;
}

TEST(ProgramDeathTest, MidBlockControlRejected) {
  ProgramBuilder b("bad");
  const BlockId blk = b.NewBlock();
  b.SetEntry(blk);
  b.SwitchTo(blk);
  b.Halt();
  b.IConst(1, 0);  // instruction after the terminator
  EXPECT_DEATH(b.Build(), "control ops must terminate");
}

TEST(ProgramDeathTest, MissingTerminatorRejected) {
  ProgramBuilder b("bad2");
  const BlockId blk = b.NewBlock();
  b.SetEntry(blk);
  b.SwitchTo(blk);
  b.IConst(1, 0);
  EXPECT_DEATH(b.Build(), "control ops must terminate");
}

TEST(ProgramDeathTest, BadBranchTargetRejected) {
  ProgramBuilder b("bad3");
  const BlockId blk = b.NewBlock();
  b.SetEntry(blk);
  b.SwitchTo(blk);
  b.Jump(99);
  EXPECT_DEATH(b.Build(), "out of range");
}

TEST(ProgramDeathTest, TypeMismatchedArrayAccessRejected) {
  ProgramBuilder b("bad4");
  const auto arr = b.AddIntArray("ints", 4);
  const BlockId blk = b.NewBlock();
  b.SetEntry(blk);
  b.SwitchTo(blk);
  b.LoadF(1, arr, 2);  // fp load from int array
  b.Halt();
  EXPECT_DEATH(b.Build(), "fp access to int array");
}

TEST(InterpreterTest, SumLoopComputesCorrectly) {
  const Program p = SumProgram(100);
  Interpreter interp(p);
  const Trace t = interp.Run();
  EXPECT_EQ(interp.int_reg(20), 5050);
  EXPECT_GT(t.instruction_count(), 300u);  // ~5 insts x 100 iterations
}

TEST(InterpreterTest, TraceContainsFetchAddressesAndOps) {
  const Program p = SumProgram(3);
  Interpreter interp(p);
  const Trace t = interp.Run();
  // First record: IConst in the entry block.
  EXPECT_EQ(t.records[0].pc, p.blocks[0].code_base);
  EXPECT_EQ(t.records[0].op, OpClass::kIntAlu);
  // Entry terminator is a taken jump.
  EXPECT_EQ(t.records[3].op, OpClass::kBranch);
  EXPECT_TRUE(t.records[3].branch_taken);
}

TEST(InterpreterTest, MemoryOpsCarryEffectiveAddresses) {
  ProgramBuilder b("mem");
  const auto arr = b.AddFpArray("data", 8);
  const BlockId blk = b.NewBlock();
  b.SetEntry(blk);
  b.SwitchTo(blk);
  b.IConst(1, 3);
  b.LoadF(2, arr, 1, 2);  // data[5]
  b.StoreF(arr, 1, 2, 4); // data[7] = f2
  b.Halt();
  const Program p = b.Build();
  Interpreter interp(p);
  interp.WriteFp(arr, 5, 2.75);
  const Trace t = interp.Run();
  EXPECT_DOUBLE_EQ(interp.ReadFp(arr, 7), 2.75);
  const Address base = p.arrays[0].base;
  EXPECT_EQ(t.records[1].op, OpClass::kLoad);
  EXPECT_EQ(t.records[1].mem_addr, base + 5 * 8);
  EXPECT_EQ(t.records[2].op, OpClass::kStore);
  EXPECT_EQ(t.records[2].mem_addr, base + 7 * 8);
}

TEST(InterpreterTest, FpArithmeticIsExact) {
  ProgramBuilder b("fp");
  const BlockId blk = b.NewBlock();
  b.SetEntry(blk);
  b.SwitchTo(blk);
  b.FConst(1, 9.0);
  b.FSqrt(2, 1);
  b.FConst(3, 2.0);
  b.FDiv(4, 2, 3);  // 1.5
  b.FNeg(5, 4);
  b.FAbs(6, 5);
  b.Halt();
  const Program p = b.Build();
  Interpreter interp(p);
  interp.Run();
  EXPECT_DOUBLE_EQ(interp.fp_reg(2), 3.0);
  EXPECT_DOUBLE_EQ(interp.fp_reg(4), 1.5);
  EXPECT_DOUBLE_EQ(interp.fp_reg(5), -1.5);
  EXPECT_DOUBLE_EQ(interp.fp_reg(6), 1.5);
}

TEST(InterpreterTest, FpuOperandClassesRecorded) {
  ProgramBuilder b("fdiv");
  const BlockId blk = b.NewBlock();
  b.SetEntry(blk);
  b.SwitchTo(blk);
  b.FConst(1, 1.0);
  b.FConst(2, 2.0);   // 1/2 = 0.5: exact power of two -> class 0
  b.FDiv(3, 1, 2);
  b.FConst(4, 3.0);   // 1/3: repeating mantissa -> highest class
  b.FDiv(5, 1, 4);
  b.Halt();
  const Program p = b.Build();
  Interpreter interp(p);
  const Trace t = interp.Run();
  EXPECT_EQ(t.records[2].op, OpClass::kFpDiv);
  EXPECT_EQ(t.records[2].fpu_operand_class, 0);
  EXPECT_EQ(t.records[4].fpu_operand_class, kFpuOperandClasses - 1);
}

TEST(InterpreterTest, PathSignatureDistinguishesBranches) {
  ProgramBuilder b("branchy");
  const BlockId entry = b.NewBlock();
  const BlockId then_blk = b.NewBlock();
  const BlockId else_blk = b.NewBlock();
  const BlockId exit = b.NewBlock();
  b.SetEntry(entry);
  b.SwitchTo(entry);
  b.BranchIfZero(1, then_blk, else_blk);  // depends on r1 input
  b.SwitchTo(then_blk);
  b.Jump(exit);
  b.SwitchTo(else_blk);
  b.Jump(exit);
  b.SwitchTo(exit);
  b.Halt();
  const Program p = b.Build();

  Interpreter zero(p);
  zero.SetIntReg(1, 0);
  Interpreter nonzero(p);
  nonzero.SetIntReg(1, 5);
  EXPECT_NE(zero.Run().path_signature, nonzero.Run().path_signature);
}

TEST(InterpreterTest, SamePathSameSignature) {
  const Program p = SumProgram(5);
  Interpreter a(p);
  Interpreter b2(p);
  EXPECT_EQ(a.Run().path_signature, b2.Run().path_signature);
}

TEST(InterpreterDeathTest, RunTwiceRejected) {
  const Program p = SumProgram(2);
  Interpreter interp(p);
  interp.Run();
  EXPECT_DEATH(interp.Run(), "once");
}

TEST(InterpreterDeathTest, OutOfBoundsAccessCaught) {
  ProgramBuilder b("oob");
  const auto arr = b.AddIntArray("small", 2);
  const BlockId blk = b.NewBlock();
  b.SetEntry(blk);
  b.SwitchTo(blk);
  b.IConst(1, 10);
  b.LoadI(2, arr, 1);
  b.Halt();
  const Program p = b.Build();
  Interpreter interp(p);
  EXPECT_DEATH(interp.Run(), "out-of-bounds");
}

TEST(InterpreterDeathTest, StepLimitCaught) {
  // Infinite loop must trip the step limit, not hang.
  ProgramBuilder b("infinite");
  const BlockId blk = b.NewBlock();
  b.SetEntry(blk);
  b.SwitchTo(blk);
  b.Jump(blk);
  const Program p = b.Build();
  Interpreter::Options opts;
  opts.max_steps = 1000;
  Interpreter interp(p, opts);
  EXPECT_DEATH(interp.Run(), "step limit");
}

TEST(InterpreterDeathTest, DivisionByZeroCaught) {
  ProgramBuilder b("div0");
  const BlockId blk = b.NewBlock();
  b.SetEntry(blk);
  b.SwitchTo(blk);
  b.IConst(1, 5);
  b.IConst(2, 0);
  b.IDiv(3, 1, 2);
  b.Halt();
  const Program p = b.Build();
  Interpreter interp(p);
  EXPECT_DEATH(interp.Run(), "division by zero");
}

TEST(InterpreterDeathTest, FpDivisionByZeroCaught) {
  ProgramBuilder b("fdiv0");
  const BlockId blk = b.NewBlock();
  b.SetEntry(blk);
  b.SwitchTo(blk);
  b.FConst(1, 1.0);
  b.FConst(2, 0.0);
  b.FDiv(3, 1, 2);
  b.Halt();
  const Program p = b.Build();
  Interpreter interp(p);
  EXPECT_DEATH(interp.Run(), "FP division by zero");
}

// The step limit is checked once per block, yet it must fire exactly as a
// per-instruction check would: a run of exactly max_steps instructions
// completes, one instruction fewer aborts.
TEST(InterpreterDeathTest, StepLimitIsExact) {
  const Program p = SumProgram(10);
  Interpreter probe(p);
  probe.Run();
  Interpreter::Options opts;
  opts.max_steps = probe.steps_executed();
  Interpreter exact(p, opts);
  EXPECT_EQ(exact.Run().instruction_count(), probe.steps_executed());
  opts.max_steps = probe.steps_executed() - 1;
  Interpreter short_by_one(p, opts);
  EXPECT_DEATH(short_by_one.Run(), "step limit");
}

// The compact decoded form keeps the IR's bounds contract: an index one
// past the end reached through the immediate offset, and a negative index,
// abort with the message of the checked access, naming the array, the
// index and the size.
TEST(InterpreterDeathTest, EdgeIndicesAbortWithTheirIndex) {
  const auto run_with_index = [](std::int64_t base, std::int64_t offset) {
    ProgramBuilder b("edges");
    const auto arr = b.AddFpArray("vec", 16);
    const BlockId blk = b.NewBlock();
    b.SetEntry(blk);
    b.SwitchTo(blk);
    b.IConst(1, base);
    b.LoadF(2, arr, 1, offset);
    b.Halt();
    const Program p = b.Build();
    Interpreter interp(p);
    interp.Run();
  };
  run_with_index(0, 15);  // the last element is in bounds
  EXPECT_DEATH(run_with_index(0, 16),
               "out-of-bounds access to 'vec': index 16 size 16");
  EXPECT_DEATH(run_with_index(14, 2),
               "out-of-bounds access to 'vec': index 16 size 16");
  EXPECT_DEATH(run_with_index(0, -1),
               "out-of-bounds access to 'vec': index -1 size 16");
  EXPECT_DEATH(run_with_index(-3, 0),
               "out-of-bounds access to 'vec': index -3 size 16");
}

// Array types are checked where the compact form no longer looks: an FP
// array is never read or written as int, through the checked accessors,
// the bulk span, or an IR load (which decoding rejects).
TEST(InterpreterDeathTest, FpArrayReadAsIntRefused) {
  ProgramBuilder b("types");
  const auto ints = b.AddIntArray("ints", 4);
  const auto fps = b.AddFpArray("fps", 4);
  const BlockId blk = b.NewBlock();
  b.SetEntry(blk);
  b.SwitchTo(blk);
  b.Halt();
  const Program p = b.Build();
  Interpreter interp(p);
  EXPECT_DEATH(interp.ReadInt(fps, 0), "array 'fps' type mismatch");
  EXPECT_DEATH(interp.IntArray(fps), "array 'fps' type mismatch");
  EXPECT_DEATH(interp.WriteInt(fps, 0, 1), "array 'fps' type mismatch");
  EXPECT_DEATH(interp.FpArray(ints), "array 'ints' type mismatch");
  Program forged = p;
  IrInst load;
  load.op = IrOp::kLoadI;
  load.dst = 1;
  load.array = fps;
  auto& insts = forged.blocks[0].insts;
  insts.insert(insts.begin(), load);
  forged.AssignLayout();
  EXPECT_DEATH(DecodedProgram{forged}, "int access to fp array 'fps'");
}

// An ArrayStore reused by the next interpreter is zeroed first: a run
// reading a slot the previous run on the same store wrote sees 0, and the
// bulk spans write what the checked accessors read back.
TEST(InterpreterTest, ReusedArrayStoreStartsZeroed) {
  ProgramBuilder b("reuse");
  const auto arr = b.AddIntArray("a", 8);
  const BlockId blk = b.NewBlock();
  b.SetEntry(blk);
  b.SwitchTo(blk);
  b.IConst(1, 5);
  b.LoadI(2, arr, 1, 0);  // r2 = a[5], before this run writes it
  b.IConst(3, 7);
  b.StoreI(arr, 1, 3, 0);  // a[5] = 7
  b.Halt();
  const Program p = b.Build();
  const DecodedProgram decoded(p);
  ArrayStore store;
  BlockTrace stream;
  {
    Interpreter first(decoded, store);
    first.IntArray(arr)[6] = 11;
    EXPECT_EQ(first.ReadInt(arr, 6), 11);
    first.Run(stream);
    EXPECT_EQ(first.int_reg(2), 0);
    EXPECT_EQ(first.ReadInt(arr, 5), 7);
  }
  Interpreter second(decoded, store);
  EXPECT_EQ(second.ReadInt(arr, 5), 0);
  EXPECT_EQ(second.ReadInt(arr, 6), 0);
  second.Run(stream);
  EXPECT_EQ(second.int_reg(2), 0);
}

// The block-stream columns are written through raw pointers after one
// capacity check per block, sized from the block's static counts. Started
// at every capacity from empty to the run's length, each column must grow
// before a block whose entries do not fit; an undercounted block would
// write past the allocation (caught by the ASan build) and lose entries.
TEST(InterpreterTest, ColumnsGrowBeforeABlockThatDoesNotFit) {
  ProgramBuilder b("columns");
  const auto arr = b.AddFpArray("a", 16);
  const BlockId entry = b.NewBlock();
  const BlockId head = b.NewBlock();
  const BlockId body = b.NewBlock();
  const BlockId done = b.NewBlock();
  b.SetEntry(entry);
  b.SwitchTo(entry);
  b.IConst(1, 0);
  b.IConst(2, 6);
  b.FConst(1, 3.0);
  b.FConst(2, 1.5);
  b.Jump(head);
  b.SwitchTo(head);
  b.ICmpLt(3, 1, 2);
  b.BranchIfZero(3, done, body);
  b.SwitchTo(body);
  b.LoadF(3, arr, 1, 0);
  b.StoreF(arr, 1, 1, 1);
  b.StoreF(arr, 1, 2, 2);
  b.FDiv(4, 1, 2);
  b.FSqrt(5, 1);
  b.IAddImm(1, 1, 1);
  b.Jump(head);
  b.SwitchTo(done);
  b.Halt();
  const Program p = b.Build();
  const DecodedProgram decoded(p);
  BlockTrace expected;
  Interpreter(decoded).Run(expected);
  ASSERT_EQ(expected.mem_addrs.size(), 18u);
  ASSERT_EQ(expected.taken.size(), 7u);
  ASSERT_EQ(expected.fpu_classes.size(), 12u);
  for (std::size_t capacity = 0; capacity <= 18; ++capacity) {
    SCOPED_TRACE(capacity);
    BlockTrace stream;
    stream.mem_addrs.reserve(capacity);
    stream.taken.reserve(capacity);
    stream.fpu_classes.reserve(capacity);
    Interpreter(decoded).Run(stream);
    EXPECT_TRUE(stream.blocks == expected.blocks);
    EXPECT_TRUE(stream.mem_addrs == expected.mem_addrs);
    EXPECT_TRUE(stream.taken == expected.taken);
    EXPECT_TRUE(stream.fpu_classes == expected.fpu_classes);
  }
}

TEST(InterpreterTest, DecodedProgramRunsLikeTheProgram) {
  const Program p = SumProgram(7);
  const DecodedProgram decoded(p);
  Interpreter from_program(p);
  Interpreter from_decoded(decoded);
  const Trace a = from_program.Run();
  const Trace b2 = from_decoded.Run();
  EXPECT_EQ(from_decoded.int_reg(20), 28);
  EXPECT_EQ(a.path_signature, b2.path_signature);
  EXPECT_TRUE(a.records == b2.records);
}

TEST(FpuOperandClassTest, PowersOfTwoAreEasiest) {
  EXPECT_EQ(FpuDivOperandClass(8.0, 2.0), 0);
  EXPECT_EQ(FpuSqrtOperandClass(4.0), 0);
  EXPECT_EQ(FpuDivOperandClass(1.0, 3.0), kFpuOperandClasses - 1);
}

TEST(SyntheticTest, SequentialTraceAddresses) {
  const Trace t = SequentialTrace(0x1000, 10, 8);
  ASSERT_EQ(t.records.size(), 10u);
  EXPECT_EQ(t.records[0].mem_addr, 0x1000u);
  EXPECT_EQ(t.records[9].mem_addr, 0x1000u + 9 * 8);
  for (const auto& r : t.records) EXPECT_EQ(r.op, OpClass::kLoad);
}

TEST(SyntheticTest, UniformRandomTraceStaysInRegion) {
  const Trace t = UniformRandomTrace(0x2000, 4096, 1000, 7);
  for (const auto& r : t.records) {
    EXPECT_GE(r.mem_addr, 0x2000u);
    EXPECT_LT(r.mem_addr, 0x2000u + 4096);
    EXPECT_EQ(r.mem_addr % 4, 0u);
  }
}

TEST(SyntheticTest, LoopingTraceRepeatsFootprint) {
  const Trace t = LoopingTrace(0x3000, 256, 32, 3);
  EXPECT_EQ(t.records.size(), 3u * (256 / 32));
  EXPECT_EQ(t.records[0].mem_addr, t.records[8].mem_addr);
}

TEST(SyntheticTest, BlendTraceRespectsRates) {
  BlendSpec spec;
  spec.count = 20000;
  const Trace t = BlendTrace(spec, 11);
  std::size_t loads = 0;
  std::size_t stores = 0;
  std::size_t branches = 0;
  for (const auto& r : t.records) {
    loads += r.op == OpClass::kLoad;
    stores += r.op == OpClass::kStore;
    branches += r.op == OpClass::kBranch;
  }
  EXPECT_NEAR(static_cast<double>(loads), 0.25 * spec.count,
              0.03 * spec.count);
  EXPECT_NEAR(static_cast<double>(stores), 0.10 * spec.count,
              0.02 * spec.count);
  EXPECT_NEAR(static_cast<double>(branches), 0.15 * spec.count,
              0.03 * spec.count);
}

TEST(SyntheticTest, BlendTraceDeterministicPerSeed) {
  BlendSpec spec;
  spec.count = 500;
  const Trace a = BlendTrace(spec, 3);
  const Trace b = BlendTrace(spec, 3);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].pc, b.records[i].pc);
    EXPECT_EQ(a.records[i].mem_addr, b.records[i].mem_addr);
  }
}

}  // namespace
}  // namespace spta::trace
