// Shared helpers for the reproduction benches.
//
// Every bench binary regenerates one table/figure of the paper. The run
// count defaults to the paper's 3,000 (or a bench-appropriate number) and
// can be scaled down for smoke runs via the SPTA_BENCH_RUNS environment
// variable.
//
// The JSON reporter gives the repo a standing perf trajectory: every
// micro_* bench emits a flat `BENCH_<name>.json` next to its stdout report
// (or into $SPTA_BENCH_JSON_DIR) with throughput, per-run latency
// percentiles and the git revision, so two checkouts can be compared
// mechanically. Schema and workflow: docs/BENCHMARKS.md; the format is
// guarded by the bench/check_bench_json tier-1 smoke test.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

namespace spta::bench {

/// Returns the configured number of measurement runs: SPTA_BENCH_RUNS if
/// set and positive, otherwise `default_runs`.
inline std::size_t RunCount(std::size_t default_runs) {
  const char* env = std::getenv("SPTA_BENCH_RUNS");
  if (env != nullptr) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return default_runs;
}

/// The up-front sample-size check of a bench whose analyses have a floor:
/// below `min_runs` it prints the minimum and returns exit status 2, so a
/// smoke run never reaches the analysis contract it would violate.
/// Returns 0 when `runs` is enough.
inline int CheckMinRuns(std::size_t runs, std::size_t min_runs) {
  if (runs >= min_runs) return 0;
  std::fprintf(stderr,
               "too few runs: %zu; this bench needs at least %zu runs "
               "(SPTA_BENCH_RUNS)\n",
               runs, min_runs);
  return 2;
}

/// Standard banner so bench outputs are self-describing.
inline void Banner(const char* experiment, const char* paper_artifact,
                   const char* claim) {
  std::printf("== %s ==\n", experiment);
  std::printf("reproduces: %s\n", paper_artifact);
  std::printf("paper claim: %s\n\n", claim);
}

/// Git revision the bench binary is running against: $SPTA_GIT_REV when
/// set (CI override), else `git rev-parse HEAD` relative to the working
/// directory, else "unknown". Cached after the first call.
inline const std::string& GitRev() {
  static const std::string rev = [] {
    if (const char* env = std::getenv("SPTA_GIT_REV"); env && *env) {
      return std::string(env);
    }
    std::string out;
    if (FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
      char buf[128];
      if (std::fgets(buf, sizeof(buf), pipe) != nullptr) out = buf;
      ::pclose(pipe);
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
      out.pop_back();
    }
    return out.empty() ? std::string("unknown") : out;
  }();
  return rev;
}

/// Order statistics of a per-run latency sample (seconds in, summary out).
struct LatencySummary {
  double p50 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Nearest-rank percentiles over `seconds` (copied; empty input -> zeros).
inline LatencySummary SummarizeLatencies(std::vector<double> seconds) {
  LatencySummary s;
  if (seconds.empty()) return s;
  std::sort(seconds.begin(), seconds.end());
  const auto rank = [&](double q) {
    const std::size_t n = seconds.size();
    const std::size_t idx = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    return seconds[std::min(n - 1, idx == 0 ? 0 : idx - 1)];
  };
  s.p50 = rank(0.50);
  s.p99 = rank(0.99);
  s.min = seconds.front();
  s.max = seconds.back();
  double sum = 0.0;
  for (const double v : seconds) sum += v;
  s.mean = sum / static_cast<double>(seconds.size());
  return s;
}

/// Machine-readable bench report. Accumulate string and numeric fields,
/// then Write() emits `BENCH_<name>.json` — a single flat JSON object —
/// into $SPTA_BENCH_JSON_DIR (default: the working directory).
///
/// Required-by-schema fields ("bench", "git_rev", "timestamp_unix",
/// "runs") are filled automatically; see docs/BENCHMARKS.md for the full
/// contract and bench/check_bench_json.cpp for the validator.
class JsonReport {
 public:
  /// `name` must be filesystem-safe ([A-Za-z0-9_-]); it becomes both the
  /// "bench" field and the BENCH_<name>.json file name.
  explicit JsonReport(std::string name, std::size_t runs)
      : name_(std::move(name)) {
    strings_.emplace_back("bench", name_);
    strings_.emplace_back("git_rev", GitRev());
    numbers_.emplace_back("timestamp_unix",
                          static_cast<double>(std::time(nullptr)));
    numbers_.emplace_back("runs", static_cast<double>(runs));
  }

  void Set(const std::string& key, double value) {
    numbers_.emplace_back(key, value);
  }
  void SetString(const std::string& key, const std::string& value) {
    strings_.emplace_back(key, value);
  }

  /// Convenience: record a LatencySummary as <prefix>_{p50,p99,mean}_ms.
  void SetLatencies(const std::string& prefix, const LatencySummary& s) {
    Set(prefix + "_p50_ms", s.p50 * 1e3);
    Set(prefix + "_p99_ms", s.p99 * 1e3);
    Set(prefix + "_mean_ms", s.mean * 1e3);
  }

  /// Writes BENCH_<name>.json; returns the path, or "" on I/O failure.
  /// Also prints the destination so bench logs point at the artifact.
  std::string Write() const {
    const char* dir = std::getenv("SPTA_BENCH_JSON_DIR");
    std::string path = (dir != nullptr && *dir != '\0')
                           ? std::string(dir) + "/BENCH_" + name_ + ".json"
                           : "BENCH_" + name_ + ".json";
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return "";
    }
    std::fprintf(f, "{\n");
    bool first = true;
    for (const auto& [key, value] : strings_) {
      std::fprintf(f, "%s  \"%s\": \"%s\"", first ? "" : ",\n",
                   Escaped(key).c_str(), Escaped(value).c_str());
      first = false;
    }
    for (const auto& [key, value] : numbers_) {
      // %.17g round-trips doubles; non-finite values are emitted as null
      // (invalid per the schema — the smoke test will catch the producer).
      if (std::isfinite(value)) {
        std::fprintf(f, "%s  \"%s\": %.17g", first ? "" : ",\n",
                     Escaped(key).c_str(), value);
      } else {
        std::fprintf(f, "%s  \"%s\": null", first ? "" : ",\n",
                     Escaped(key).c_str());
      }
      first = false;
    }
    std::fprintf(f, "\n}\n");
    const bool ok = std::fclose(f) == 0;
    if (!ok) return "";
    std::printf("wrote %s\n", path.c_str());
    return path;
  }

 private:
  static std::string Escaped(const std::string& in) {
    std::string out;
    out.reserve(in.size());
    for (const char c : in) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20) continue;  // keys/values are
      out.push_back(c);                                    // single-line
    }
    return out;
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> strings_;
  std::vector<std::pair<std::string, double>> numbers_;
};

}  // namespace spta::bench
