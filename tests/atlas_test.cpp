// src/atlas battery: the columnar container.
//
// Two property families:
//   * container: round-trips (frozen + fuzzed traces), golden encodings,
//     hostile-input rejection (truncations, bit flips, alien bytes) with
//     typed errors — never a crash;
//   * integration: the service INGEST verb validates either container and
//     describes the trace without keeping any state.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "apps/tvca.hpp"
#include "apps/kernels.hpp"
#include "atlas/format.hpp"
#include "obs/trace.hpp"
#include "prng/xoshiro.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/sharded_server.hpp"
#include "trace/interpreter.hpp"
#include "trace/trace_io.hpp"

namespace spta {
namespace {

// ---------------------------------------------------------------------------
// Workload builders (the frozen traces of golden_regression_test plus a
// synthetic kernel-loop trace for the INGEST properties).

apps::TvcaConfig ReducedTvcaConfig() {
  apps::TvcaConfig tc;
  tc.sensor_channels = 4;
  tc.samples_per_frame = 8;
  tc.fir_taps = 6;
  tc.state_dim = 8;
  tc.integrator_steps = 6;
  tc.control_iterations = 1;
  tc.straightline_instructions = 200;
  tc.dispatch_overhead = 32;
  return tc;
}

trace::Trace ReducedTvcaTrace() {
  const apps::TvcaApp app(ReducedTvcaConfig());
  return app.BuildFrame(42).trace;
}

trace::Trace MatmulTrace() {
  const trace::Program program = apps::MakeMatMulProgram(10);
  trace::Interpreter interp(program);
  prng::Xoshiro128pp rng(77);
  for (int i = 0; i < 100; ++i) {
    interp.WriteFp(0, static_cast<std::size_t>(i), rng.UniformUnit());
    interp.WriteFp(1, static_cast<std::size_t>(i), rng.UniformUnit());
  }
  return interp.Run();
}

trace::Trace FirTrace() {
  const trace::Program program = apps::MakeFirProgram(8, 64);
  trace::Interpreter interp(program);
  prng::Xoshiro128pp rng(78);
  for (int i = 0; i < 8; ++i) {
    interp.WriteFp(0, static_cast<std::size_t>(i), 0.125);
  }
  for (int i = 0; i < 72; ++i) {
    interp.WriteFp(1, static_cast<std::size_t>(i), rng.Normal());
  }
  return interp.Run();
}

/// Synthetic loop trace: prologue . body x `iterations` . epilogue, with
/// the body touching the same addresses every iteration, so every
/// iteration is record-for-record equal.
trace::Trace KernelLoopTrace(std::size_t iterations,
                             std::size_t body_records = 48) {
  trace::Trace t;
  t.path_signature = 0xA71A5;
  auto push = [&](Address pc, trace::OpClass op, Address mem = 0,
                  bool taken = false) {
    trace::TraceRecord r;
    r.pc = pc;
    r.op = op;
    r.mem_addr = mem;
    r.branch_taken = taken;
    t.records.push_back(r);
  };
  for (std::size_t i = 0; i < 40; ++i) {
    push(0x1000 + 4 * i,
         i % 5 == 0 ? trace::OpClass::kLoad : trace::OpClass::kIntAlu,
         i % 5 == 0 ? 0x9000 + 64 * i : 0);
  }
  for (std::size_t k = 0; k < iterations; ++k) {
    for (std::size_t j = 0; j + 1 < body_records; ++j) {
      if (j % 4 == 1) {
        push(0x2000 + 4 * j, trace::OpClass::kLoad, 0x8000 + 32 * j);
      } else if (j == 18) {
        push(0x2000 + 4 * j, trace::OpClass::kStore, 0x8800 + 32 * j);
      } else {
        push(0x2000 + 4 * j, trace::OpClass::kIntAlu);
      }
    }
    push(0x2000 + 4 * (body_records - 1), trace::OpClass::kBranch, 0, true);
  }
  for (std::size_t i = 0; i < 30; ++i) {
    push(0x3000 + 4 * i, trace::OpClass::kIntAlu);
  }
  return t;
}

/// Fully random trace (fuzz input). Field values cover the whole legal
/// range including the oddballs (mem_addr on non-memory ops is legal in
/// the in-memory model and must survive the container round trip).
trace::Trace RandomTrace(std::uint64_t seed, std::size_t n) {
  prng::Xoshiro128pp rng(seed);
  trace::Trace t;
  t.path_signature = rng.Next();
  t.records.resize(n);
  for (auto& r : t.records) {
    r.pc = rng.Next() & 0xffffffffffull;
    r.op = static_cast<trace::OpClass>(
        rng.UniformBelow(static_cast<std::uint32_t>(trace::OpClass::kNop) + 1));
    const bool is_mem = r.op == trace::OpClass::kLoad ||
                        r.op == trace::OpClass::kStore;
    if (is_mem || rng.UniformBelow(8) == 0) {
      r.mem_addr = rng.Next() & 0xffffffffull;
    }
    r.fpu_operand_class =
        static_cast<std::uint8_t>(rng.UniformBelow(trace::kFpuOperandClasses));
    r.branch_taken = rng.UniformBelow(2) == 1;
    r.dst_reg = static_cast<std::uint8_t>(rng.UniformBelow(64));
    r.src1_reg = static_cast<std::uint8_t>(rng.Next() & 0xff);
    r.src2_reg = rng.UniformBelow(3) == 0 ? trace::kNoReg
                                          : static_cast<std::uint8_t>(
                                                rng.UniformBelow(64));
    if (r.src1_reg != trace::kNoReg) r.src1_reg &= 0x7f;
  }
  return t;
}

std::string AtlasBytes(const trace::Trace& t,
                       std::uint32_t block_records = atlas::kDefaultBlockRecords) {
  std::ostringstream out;
  atlas::WriteAtlas(out, t, block_records);
  return out.str();
}

std::string LegacyBytes(const trace::Trace& t) {
  std::ostringstream out;
  trace::WriteTrace(out, t);
  return out.str();
}

// ---------------------------------------------------------------------------
// Container round-trips.

TEST(AtlasFormatTest, FrozenTracesRoundTripAndHitPackTarget) {
  const struct {
    const char* name;
    trace::Trace t;
  } workloads[] = {{"tvca-reduced", ReducedTvcaTrace()},
                   {"matmul", MatmulTrace()},
                   {"fir", FirTrace()}};
  for (const auto& w : workloads) {
    const std::string packed = AtlasBytes(w.t);
    const std::string legacy = LegacyBytes(w.t);
    std::istringstream in(packed);
    trace::Trace round;
    std::string error;
    ASSERT_TRUE(atlas::TryReadAtlas(in, &round, &error)) << w.name << ": "
                                                         << error;
    EXPECT_EQ(round.records, w.t.records) << w.name;
    EXPECT_EQ(round.path_signature, w.t.path_signature) << w.name;
    EXPECT_TRUE(atlas::TraceContentDigest(round) ==
                atlas::TraceContentDigest(w.t))
        << w.name;
    // The acceptance target: >= 3x smaller than the legacy container.
    EXPECT_GE(static_cast<double>(legacy.size()) /
                  static_cast<double>(packed.size()),
              3.0)
        << w.name << " packed to " << packed.size() << " of "
        << legacy.size();
  }
}

TEST(AtlasFormatTest, EncodingIsDeterministic) {
  const trace::Trace t = ReducedTvcaTrace();
  EXPECT_EQ(AtlasBytes(t), AtlasBytes(t));
  EXPECT_EQ(AtlasBytes(t, 512), AtlasBytes(t, 512));
  EXPECT_NE(AtlasBytes(t, 512), AtlasBytes(t, 1024));
}

// Golden encodings of the frozen workloads: the exact container size and
// content digest are pinned so the on-disk format cannot drift silently.
// Re-baseline these constants only alongside a deliberate format change
// (and bump kAtlasVersion when the layout itself moves).
TEST(AtlasFormatTest, GoldenEncodings) {
  struct Golden {
    const char* name;
    trace::Trace t;
    std::size_t atlas_bytes;
    std::uint64_t digest_lo;
    std::uint64_t digest_hi;
  };
  const Golden goldens[] = {
      {"tvca-reduced", ReducedTvcaTrace(), 44216, 0xb77f77b646f7cda2ull,
       0x92705fe1015b8c8eull},
      {"matmul", MatmulTrace(), 64673, 0x3dbb0efb46a1e69dull,
       0xdba6142b06ab1be9ull},
      {"fir", FirTrace(), 26648, 0x54a1fd5945233d52ull,
       0xaf1da47dab6f321cull},
  };
  for (const auto& g : goldens) {
    const std::string packed = AtlasBytes(g.t);
    const DualHash digest = atlas::TraceContentDigest(g.t);
    EXPECT_EQ(packed.size(), g.atlas_bytes) << g.name;
    EXPECT_EQ(digest.lo, g.digest_lo) << g.name;
    EXPECT_EQ(digest.hi, g.digest_hi) << g.name;
  }
}

TEST(AtlasFormatTest, SeededFuzzRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    // Sizes sweep block boundaries: empty, single record, one block,
    // block +/- 1, several blocks (block_records = 64 below).
    const std::size_t sizes[] = {0, 1, 63, 64, 65, 500, 1337};
    const std::size_t n = sizes[seed % std::size(sizes)];
    const trace::Trace t = RandomTrace(seed, n);
    const std::string packed = AtlasBytes(t, 64);
    std::istringstream in(packed);
    trace::Trace round;
    std::string error;
    ASSERT_TRUE(atlas::TryReadAtlas(in, &round, &error))
        << "seed " << seed << ": " << error;
    ASSERT_EQ(round.records, t.records) << "seed " << seed;
    EXPECT_EQ(round.path_signature, t.path_signature) << "seed " << seed;
  }
}

TEST(AtlasFormatTest, FileRoundTripAndAnySniffing) {
  const trace::Trace t = FirTrace();
  const std::string atlas_path =
      ::testing::TempDir() + "spta_atlas_test_fir.atls";
  const std::string legacy_path =
      ::testing::TempDir() + "spta_atlas_test_fir.trc";
  atlas::SaveAtlasFile(atlas_path, t);
  trace::SaveTraceFile(legacy_path, t);

  trace::Trace from_atlas, from_legacy;
  atlas::TraceFormat f1 = atlas::TraceFormat::kLegacy;
  atlas::TraceFormat f2 = atlas::TraceFormat::kAtlas;
  std::string error;
  ASSERT_TRUE(atlas::TryLoadAnyTraceFile(atlas_path, &from_atlas, &f1, &error))
      << error;
  ASSERT_TRUE(
      atlas::TryLoadAnyTraceFile(legacy_path, &from_legacy, &f2, &error))
      << error;
  EXPECT_EQ(f1, atlas::TraceFormat::kAtlas);
  EXPECT_EQ(f2, atlas::TraceFormat::kLegacy);
  EXPECT_EQ(from_atlas.records, t.records);
  EXPECT_EQ(from_legacy.records, t.records);

  trace::Trace ignored;
  atlas::TraceFormat ignored_format = atlas::TraceFormat::kLegacy;
  EXPECT_FALSE(atlas::TryLoadAnyTraceFile(
      ::testing::TempDir() + "spta_atlas_no_such_file", &ignored,
      &ignored_format, &error));
  EXPECT_FALSE(error.empty());
  std::remove(atlas_path.c_str());
  std::remove(legacy_path.c_str());
}

// ---------------------------------------------------------------------------
// Hostile input: every truncation and every single-bit flip of a valid
// container must be rejected with a typed error — no abort, no silent
// wrong decode. (The content digest backstops whatever slips past the
// structural checks.)

TEST(AtlasFormatTest, EveryTruncationRejected) {
  const trace::Trace t = RandomTrace(9, 300);
  const std::string packed = AtlasBytes(t, 64);
  ASSERT_LT(packed.size(), 20000u);
  for (std::size_t len = 0; len < packed.size(); ++len) {
    std::istringstream in(packed.substr(0, len));
    trace::Trace out;
    std::string error;
    ASSERT_FALSE(atlas::TryReadAtlas(in, &out, &error)) << "len " << len;
    ASSERT_FALSE(error.empty()) << "len " << len;
  }
}

TEST(AtlasFormatTest, EveryByteFlipRejected) {
  const trace::Trace t = RandomTrace(10, 300);
  const std::string packed = AtlasBytes(t, 64);
  for (std::size_t i = 0; i < packed.size(); ++i) {
    std::string damaged = packed;
    damaged[i] = static_cast<char>(damaged[i] ^ (1u << (i % 8)));
    std::istringstream in(damaged);
    trace::Trace out;
    std::string error;
    ASSERT_FALSE(atlas::TryReadAtlas(in, &out, &error)) << "byte " << i;
  }
}

TEST(AtlasFormatTest, AlienBytesRejectedBySniffer) {
  for (const std::string& bytes :
       {std::string(), std::string("ATL"), std::string("garbage input"),
        std::string(200, '\0'), std::string("ATLS then junk............")}) {
    std::istringstream in(bytes);
    trace::Trace out;
    atlas::TraceFormat format = atlas::TraceFormat::kLegacy;
    std::string error;
    EXPECT_FALSE(atlas::TryReadAnyTrace(in, &out, &format, &error));
    EXPECT_FALSE(error.empty());
  }
}

// ---------------------------------------------------------------------------
// Service INGEST.

service::Response Roundtrip(service::ShardedServer& fleet,
                            const service::Request& request) {
  std::string in;
  std::string out;
  service::AppendRequestFrame(request, &in);
  fleet.ServeScript(in, &out);
  std::istringstream stream(out);
  service::Response response;
  std::string error;
  EXPECT_EQ(service::ReadResponse(stream, &response, &error),
            service::ReadStatus::kOk)
      << error;
  return response;
}

std::size_t CachedEntries(service::ShardedServer& fleet) {
  return fleet.engine().cache().stats().size;
}

TEST(AtlasServiceTest, IngestDescribesEitherContainer) {
  service::ShardedServer server;
  const trace::Trace t = KernelLoopTrace(100);
  const std::size_t cached_before = CachedEntries(server);

  service::Request ingest;
  ingest.kind = service::RequestKind::kIngest;
  ingest.payload = AtlasBytes(t);
  const service::Response atlas_reply = Roundtrip(server, ingest);
  ASSERT_TRUE(atlas_reply.ok) << atlas_reply.payload;
  ingest.payload = LegacyBytes(t);
  const service::Response legacy_reply = Roundtrip(server, ingest);
  ASSERT_TRUE(legacy_reply.ok) << legacy_reply.payload;

  // One trace, two containers: the description matches except for the
  // container name.
  EXPECT_EQ(atlas_reply.args.GetString("format"), "atlas");
  EXPECT_EQ(legacy_reply.args.GetString("format"), "legacy");
  EXPECT_FALSE(atlas_reply.args.GetString("digest").empty());
  EXPECT_EQ(legacy_reply.args.GetString("digest"),
            atlas_reply.args.GetString("digest"));
  EXPECT_EQ(atlas_reply.args.GetUint("records", 0), t.records.size());
  EXPECT_EQ(legacy_reply.args.GetUint("records", 0), t.records.size());
  EXPECT_EQ(atlas_reply.args.GetUint("path_signature", 0), t.path_signature);
  EXPECT_EQ(legacy_reply.args.GetUint("path_signature", 0), t.path_signature);
  EXPECT_TRUE(atlas_reply.payload.empty());
  EXPECT_TRUE(legacy_reply.payload.empty());

  // INGEST is stateless: nothing lands in the result cache.
  EXPECT_EQ(CachedEntries(server), cached_before);
}

TEST(AtlasServiceTest, IngestRejectsHostilePayloadsWithoutDying) {
  service::ShardedServer server;
  const std::string valid = AtlasBytes(KernelLoopTrace(20));
  const std::string payloads[] = {
      std::string("not a trace at all"), valid.substr(0, valid.size() / 2),
      [&] {
        std::string damaged = valid;
        damaged[damaged.size() / 2] ^= 0x40;
        return damaged;
      }(),
      std::string()};
  for (const auto& payload : payloads) {
    service::Request ingest;
    ingest.kind = service::RequestKind::kIngest;
    ingest.payload = payload;
    const service::Response response = Roundtrip(server, ingest);
    EXPECT_FALSE(response.ok);
  }
  // The server is still alive and serving.
  service::Request ping;
  ping.kind = service::RequestKind::kPing;
  EXPECT_TRUE(Roundtrip(server, ping).ok);
}

}  // namespace
}  // namespace spta
