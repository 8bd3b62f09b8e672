// Tests for binary trace serialization.
#include <gtest/gtest.h>

#include <sstream>

#include "apps/kernels.hpp"
#include "trace/interpreter.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_io.hpp"

namespace spta::trace {
namespace {

TEST(TraceIoTest, RoundTripPreservesEveryField) {
  BlendSpec spec;
  spec.count = 3000;
  const Trace original = BlendTrace(spec, 5);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  WriteTrace(ss, original);
  const Trace loaded = ReadTrace(ss);
  ASSERT_EQ(loaded.records.size(), original.records.size());
  EXPECT_EQ(loaded.path_signature, original.path_signature);
  for (std::size_t i = 0; i < original.records.size(); ++i) {
    const auto& a = original.records[i];
    const auto& b = loaded.records[i];
    ASSERT_EQ(a.pc, b.pc) << i;
    ASSERT_EQ(a.mem_addr, b.mem_addr) << i;
    ASSERT_EQ(a.op, b.op) << i;
    ASSERT_EQ(a.fpu_operand_class, b.fpu_operand_class) << i;
    ASSERT_EQ(a.branch_taken, b.branch_taken) << i;
    ASSERT_EQ(a.dst_reg, b.dst_reg) << i;
    ASSERT_EQ(a.src1_reg, b.src1_reg) << i;
    ASSERT_EQ(a.src2_reg, b.src2_reg) << i;
  }
}

TEST(TraceIoTest, RoundTripInterpretedProgramTrace) {
  const Program p = apps::MakeCrcProgram(64);
  Interpreter interp(p);
  for (int i = 0; i < 256; ++i) interp.WriteInt(0, (std::size_t)i, i * 3);
  for (int i = 0; i < 64; ++i) interp.WriteInt(1, (std::size_t)i, i);
  const Trace original = interp.Run();
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  WriteTrace(ss, original);
  const Trace loaded = ReadTrace(ss);
  ASSERT_EQ(loaded.records.size(), original.records.size());
  // Register annotations survive (needed for the hazard model on replay).
  bool any_regs = false;
  for (std::size_t i = 0; i < original.records.size(); ++i) {
    EXPECT_EQ(loaded.records[i].dst_reg, original.records[i].dst_reg);
    any_regs |= original.records[i].dst_reg != kNoReg;
  }
  EXPECT_TRUE(any_regs);
}

TEST(TraceIoTest, EmptyTraceRoundTrips) {
  Trace empty;
  empty.path_signature = 42;
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  WriteTrace(ss, empty);
  const Trace loaded = ReadTrace(ss);
  EXPECT_TRUE(loaded.records.empty());
  EXPECT_EQ(loaded.path_signature, 42u);
}

TEST(TraceIoDeathTest, BadMagicRejected) {
  std::stringstream ss("this is not a trace file at all............");
  EXPECT_DEATH(ReadTrace(ss), "bad magic");
}

TEST(TraceIoDeathTest, TruncationRejected) {
  BlendSpec spec;
  spec.count = 100;
  const Trace t = BlendTrace(spec, 1);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  WriteTrace(ss, t);
  const std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() / 2),
                        std::ios::in | std::ios::binary);
  EXPECT_DEATH(ReadTrace(cut), "truncated");
}

TEST(TraceIoDeathTest, MissingFileRejected) {
  EXPECT_DEATH(LoadTraceFile("/nonexistent/trace.trc"), "cannot open");
}

TEST(TraceIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "spta_trace_io_test.trc";
  BlendSpec spec;
  spec.count = 500;
  const Trace t = BlendTrace(spec, 9);
  SaveTraceFile(path, t);
  const Trace loaded = LoadTraceFile(path);
  EXPECT_EQ(loaded.records.size(), t.records.size());
  std::remove(path.c_str());
}

// --- Typed-error surface (TryReadTrace / TryLoadTraceFile) ---------------
//
// The CLI's `simulate --trace` and `trace info` feed these with user
// bytes: every defect must come back as false + message, never an abort.

TEST(TraceIoTryTest, BadMagicReportsTypedError) {
  std::stringstream ss("this is not a trace file at all............");
  Trace out;
  std::string error;
  EXPECT_FALSE(TryReadTrace(ss, &out, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(TraceIoTryTest, EveryTruncationReportsTypedError) {
  BlendSpec spec;
  spec.count = 40;
  const Trace t = BlendTrace(spec, 3);
  std::stringstream full(std::ios::in | std::ios::out | std::ios::binary);
  WriteTrace(full, t);
  const std::string bytes = full.str();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::stringstream cut(bytes.substr(0, len),
                          std::ios::in | std::ios::binary);
    Trace out;
    std::string error;
    ASSERT_FALSE(TryReadTrace(cut, &out, &error)) << "length " << len;
    ASSERT_FALSE(error.empty()) << "length " << len;
  }
}

TEST(TraceIoTryTest, OutOfRangeFieldsReportTypedErrors) {
  BlendSpec spec;
  spec.count = 8;
  const Trace t = BlendTrace(spec, 4);
  std::stringstream full(std::ios::in | std::ios::out | std::ios::binary);
  WriteTrace(full, t);
  const std::string bytes = full.str();
  // Corrupting any byte must either still parse (fields where every byte
  // value is legal) or produce a typed error; it must never abort. Spot
  // checks above pin the magic case; this sweeps everything else.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string damaged = bytes;
    damaged[i] = static_cast<char>(damaged[i] ^ 0xff);
    std::stringstream in(damaged, std::ios::in | std::ios::binary);
    Trace out;
    std::string error;
    if (!TryReadTrace(in, &out, &error)) {
      ASSERT_FALSE(error.empty()) << "byte " << i;
    }
  }
}

TEST(TraceIoTryTest, MissingFileReportsTypedError) {
  Trace out;
  std::string error;
  EXPECT_FALSE(TryLoadTraceFile("/nonexistent/trace.trc", &out, &error));
  EXPECT_NE(error.find("open"), std::string::npos) << error;
}

TEST(TraceIoTryTest, ValidStreamStillParses) {
  BlendSpec spec;
  spec.count = 25;
  const Trace t = BlendTrace(spec, 5);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  WriteTrace(ss, t);
  Trace out;
  std::string error;
  ASSERT_TRUE(TryReadTrace(ss, &out, &error)) << error;
  EXPECT_EQ(out.records.size(), t.records.size());
  EXPECT_EQ(out.path_signature, t.path_signature);
}

}  // namespace
}  // namespace spta::trace
