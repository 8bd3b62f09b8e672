// Atlas container bench: pack ratio and cold-load time, plus serial
// simulation of the same trace as context.
//
// Workload: a repeated-kernel trace (48-record loop body x 2000
// iterations, ~96k records) — the shape the columnar container packs
// best. Two legs:
//
//   pack     — legacy vs atlas container size + cold load from disk;
//   serial   — sim::Platform::Run per seed (context; master seed 123, the
//              hotpath protocol).
//
// Acceptance: the atlas container is >= 3x smaller than the legacy one,
// and a trace reloaded from it is the original record for record. Both
// are checked at every size, so the tier-1 smoke (SPTA_BENCH_RUNS=64 via
// check_bench_json) enforces them too.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/campaign.hpp"
#include "atlas/format.hpp"
#include "bench_util.hpp"
#include "sim/platform.hpp"
#include "trace/trace_io.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The repeated-kernel workload: prologue . 48-record body x `iterations`
/// . epilogue, every iteration identical (same pcs, same addresses).
spta::trace::Trace KernelLoopTrace(std::size_t iterations) {
  using spta::trace::OpClass;
  spta::trace::Trace t;
  t.path_signature = 0xA71A5;
  auto push = [&](spta::Address pc, OpClass op, spta::Address mem = 0,
                  bool taken = false) {
    spta::trace::TraceRecord r;
    r.pc = pc;
    r.op = op;
    r.mem_addr = mem;
    r.branch_taken = taken;
    t.records.push_back(r);
  };
  for (std::size_t i = 0; i < 40; ++i) {
    push(0x1000 + 4 * i, i % 5 == 0 ? OpClass::kLoad : OpClass::kIntAlu,
         i % 5 == 0 ? 0x9000 + 64 * i : 0);
  }
  constexpr std::size_t kBody = 48;
  for (std::size_t k = 0; k < iterations; ++k) {
    for (std::size_t j = 0; j + 1 < kBody; ++j) {
      if (j % 4 == 1) {
        push(0x2000 + 4 * j, OpClass::kLoad, 0x8000 + 32 * j);
      } else if (j == 18) {
        push(0x2000 + 4 * j, OpClass::kStore, 0x8800 + 32 * j);
      } else {
        push(0x2000 + 4 * j, OpClass::kIntAlu);
      }
    }
    push(0x2000 + 4 * (kBody - 1), OpClass::kBranch, 0, true);
  }
  for (std::size_t i = 0; i < 30; ++i) {
    push(0x3000 + 4 * i, OpClass::kIntAlu);
  }
  return t;
}

}  // namespace

int main() {
  using namespace spta;
  bench::Banner(
      "micro: atlas traces",
      "infrastructure (no paper artifact): columnar container",
      "atlas packs >= 3x smaller and reloads bit-identically");

  const std::size_t runs = bench::RunCount(300);
  constexpr std::uint64_t kMasterSeed = 123;
  constexpr std::size_t kIterations = 2000;

  const trace::Trace t = KernelLoopTrace(kIterations);
  const auto config = sim::RandLeon3Config();
  std::printf("workload: kernel loop x %zu, %zu records\n", kIterations,
              t.records.size());

  // --- container leg ----------------------------------------------------
  std::ostringstream legacy_out(std::ios::binary);
  trace::WriteTrace(legacy_out, t);
  const std::string legacy_bytes = legacy_out.str();
  std::ostringstream atlas_out(std::ios::binary);
  atlas::WriteAtlas(atlas_out, t);
  const std::string atlas_bytes = atlas_out.str();
  const double pack_ratio = static_cast<double>(legacy_bytes.size()) /
                            static_cast<double>(atlas_bytes.size());

  const std::string dir = "/tmp";
  const std::string legacy_path = dir + "/spta_bench_atlas.trc";
  const std::string atlas_path = dir + "/spta_bench_atlas.atls";
  {
    std::ofstream f(legacy_path, std::ios::binary);
    f.write(legacy_bytes.data(),
            static_cast<std::streamsize>(legacy_bytes.size()));
  }
  {
    std::ofstream f(atlas_path, std::ios::binary);
    f.write(atlas_bytes.data(),
            static_cast<std::streamsize>(atlas_bytes.size()));
  }
  // Cold load: file -> fully materialized std::vector<TraceRecord>. Two
  // passes each, second one reported (first warms the page cache so the
  // comparison is decode cost, not disk).
  double legacy_load_s = 0.0;
  double atlas_load_s = 0.0;
  std::string error;
  for (int pass = 0; pass < 2; ++pass) {
    trace::Trace loaded;
    auto t0 = Clock::now();
    if (!trace::TryLoadTraceFile(legacy_path, &loaded, &error)) {
      std::fprintf(stderr, "FAIL: legacy reload: %s\n", error.c_str());
      return 1;
    }
    legacy_load_s = Seconds(t0);
    trace::Trace unpacked;
    t0 = Clock::now();
    if (!atlas::TryLoadAtlasFile(atlas_path, &unpacked, &error)) {
      std::fprintf(stderr, "FAIL: atlas reload: %s\n", error.c_str());
      return 1;
    }
    atlas_load_s = Seconds(t0);
    if (pass == 1 && !(unpacked.records == t.records)) {
      std::fprintf(stderr, "FAIL: atlas round trip not bit-identical\n");
      return 1;
    }
  }
  std::remove(legacy_path.c_str());
  std::remove(atlas_path.c_str());
  const double cold_load_speedup = legacy_load_s / atlas_load_s;
  std::printf("container: legacy %zu B, atlas %zu B  (%.2fx smaller)\n",
              legacy_bytes.size(), atlas_bytes.size(), pack_ratio);
  std::printf("cold load: legacy %.3f ms, atlas %.3f ms  (%.2fx)\n",
              legacy_load_s * 1e3, atlas_load_s * 1e3, cold_load_speedup);

  // --- serial leg (context) --------------------------------------------
  sim::Platform platform(config, kMasterSeed);
  (void)platform.Run(t, analysis::FixedTraceRunSeed(kMasterSeed, 0));
  double serial_s = 0.0;
  {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < runs; ++i) {
      (void)platform.Run(t, analysis::FixedTraceRunSeed(kMasterSeed, i));
    }
    serial_s = Seconds(t0);
  }
  const double serial_rps = static_cast<double>(runs) / serial_s;
  std::printf("\nserial              : %10.2f runs/sec\n", serial_rps);

  bool failed = false;
  if (pack_ratio < 3.0) {
    std::printf("FAIL: pack ratio %.2fx below the 3x acceptance bar\n",
                pack_ratio);
    failed = true;
  }

  bench::JsonReport report("trace_atlas", runs);
  report.Set("trace_records", static_cast<double>(t.records.size()));
  report.Set("legacy_bytes", static_cast<double>(legacy_bytes.size()));
  report.Set("atlas_bytes", static_cast<double>(atlas_bytes.size()));
  report.Set("pack_ratio", pack_ratio);
  report.Set("cold_load_legacy_ms", legacy_load_s * 1e3);
  report.Set("cold_load_atlas_ms", atlas_load_s * 1e3);
  report.Set("cold_load_speedup", cold_load_speedup);
  report.Set("serial_runs_per_sec", serial_rps);
  if (report.Write().empty()) failed = true;

  return failed ? 1 : 0;
}
