// Tier-1 smoke test for the machine-readable bench report format.
//
// Runs micro_sim_hotpath for a handful of runs (SPTA_BENCH_RUNS=50 — small
// enough for the test tier, large enough for stable percentiles) with the
// JSON output redirected to a scratch directory, then validates the emitted
// artifacts against the schema contract of docs/BENCHMARKS.md:
//
//   BENCH_sim_hotpath.json      throughput + latency trajectory
//   BENCH_fault_overhead.json   zero-fault-path A/B gate (docs/FAULTS.md)
//   BENCH_obs_overhead.json     disabled-span A/B gate
//                               (docs/OBSERVABILITY.md)
//   BENCH_block_frame.json      block-frame vs record-frame A/B
//                               (bit-identity required)
//
// Each file must be one flat JSON object, every required key present, every
// numeric field a finite number (nulls — the reporter's spelling of
// NaN/inf — fail the check). This keeps the perf-trajectory artifacts
// trustworthy without making tier-1 runtime depend on perf acceptance bars.
//
// When given a second binary (micro_service_loadgen), it also runs the
// service load generator at SPTA_BENCH_RUNS=50 (scales the warm request
// streams; the analysis stays at the full 3,000 samples) and validates
// BENCH_service_loadgen.json plus BENCH_service_fleet.json — requiring
// checksum_match=1 (memo-served responses bit-identical to the ones the
// shard re-executes with the memo off) and warm_start_hit=1 (a restarted
// fleet served its first repeat from the persistent cache). The >= 10x
// memo-vs-memo-off warm throughput bar arms itself inside the bench at
// >= 150 runs; here the
// checker verifies the gate fields are present and, whenever the report
// says the gate was armed, that it passed.
//
// Usage: check_bench_json <path-to-micro_sim_hotpath>
//                         [<path-to-micro_service_loadgen>]
#include <unistd.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

int g_failures = 0;

void Fail(const std::string& what) {
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  ++g_failures;
}

/// Minimal parser for the flat single-level JSON objects the reporter
/// emits: string and numeric (or null) values only, no nesting. Returns
/// false on structural errors.
bool ParseFlatJson(const std::string& text,
                   std::map<std::string, std::string>* strings,
                   std::map<std::string, std::string>* numbers) {
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
  };
  const auto parse_string = [&](std::string* out) {
    if (i >= text.size() || text[i] != '"') return false;
    ++i;
    out->clear();
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\' && i + 1 < text.size()) ++i;
      out->push_back(text[i++]);
    }
    if (i >= text.size()) return false;
    ++i;  // closing quote
    return true;
  };
  skip_ws();
  if (i >= text.size() || text[i] != '{') return false;
  ++i;
  skip_ws();
  if (i < text.size() && text[i] == '}') return true;  // empty object
  while (true) {
    skip_ws();
    std::string key;
    if (!parse_string(&key)) return false;
    skip_ws();
    if (i >= text.size() || text[i] != ':') return false;
    ++i;
    skip_ws();
    if (i >= text.size()) return false;
    if (text[i] == '"') {
      std::string value;
      if (!parse_string(&value)) return false;
      (*strings)[key] = value;
    } else {
      std::string value;
      while (i < text.size() && text[i] != ',' && text[i] != '}' &&
             !std::isspace(static_cast<unsigned char>(text[i]))) {
        value.push_back(text[i++]);
      }
      if (value.empty()) return false;
      (*numbers)[key] = value;
    }
    skip_ws();
    if (i >= text.size()) return false;
    if (text[i] == '}') return true;
    if (text[i] != ',') return false;
    ++i;
  }
}

/// Validates one BENCH_<name>.json against the shared schema plus the
/// bench-specific `required` numeric keys. Populates `numbers` for any
/// bench-specific sanity checks at the caller.
void ValidateReport(const std::string& json_path,
                    const std::string& expected_bench,
                    const std::vector<std::string>& required,
                    std::map<std::string, std::string>* numbers) {
  std::ifstream in(json_path);
  if (!in) {
    Fail("bench did not emit " + json_path);
    return;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  std::map<std::string, std::string> strings;
  if (!ParseFlatJson(text, &strings, numbers)) {
    Fail(json_path + " is not a flat JSON object:\n" + text);
    return;
  }

  // Required string fields.
  for (const char* key : {"bench", "git_rev"}) {
    const auto it = strings.find(key);
    if (it == strings.end()) {
      Fail(json_path + ": missing string field \"" + key + "\"");
    } else if (it->second.empty()) {
      Fail(json_path + ": empty string field \"" + key + "\"");
    }
  }
  if (const auto it = strings.find("bench");
      it != strings.end() && it->second != expected_bench) {
    Fail(json_path + ": \"bench\" is \"" + it->second + "\", expected \"" +
         expected_bench + "\"");
  }

  // Required numeric fields — must parse fully and be finite.
  std::vector<std::string> all_required = {"timestamp_unix", "runs"};
  all_required.insert(all_required.end(), required.begin(), required.end());
  for (const std::string& key : all_required) {
    const auto it = numbers->find(key);
    if (it == numbers->end()) {
      Fail(json_path + ": missing numeric field \"" + key + "\"");
      continue;
    }
    if (it->second == "null") {
      Fail(json_path + ": field \"" + key +
           "\" is null (non-finite at the producer)");
      continue;
    }
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0') {
      Fail(json_path + ": field \"" + key + "\" is not a number: " +
           it->second);
    } else if (!std::isfinite(v)) {
      Fail(json_path + ": field \"" + key + "\" is not finite: " +
           it->second);
    }
  }
  // Every numeric field, required or not, must be finite JSON.
  for (const auto& [key, value] : *numbers) {
    if (value == "null") Fail(json_path + ": field \"" + key + "\" is null");
  }
}

double Number(const std::map<std::string, std::string>& numbers,
              const std::string& key, double fallback) {
  const auto it = numbers.find(key);
  if (it == numbers.end() || it->second == "null") return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr,
                 "usage: %s <path-to-micro_sim_hotpath> "
                 "[<path-to-micro_service_loadgen>]\n",
                 argv[0]);
    return 2;
  }

  // Scratch directory for the JSON artifacts so the check never races a
  // real bench run in the working directory.
  char scratch[] = "/tmp/spta_bench_json_XXXXXX";
  if (::mkdtemp(scratch) == nullptr) {
    std::fprintf(stderr, "FAIL: cannot create scratch directory\n");
    return 1;
  }
  const std::string dir = scratch;
  const std::string hotpath_json = dir + "/BENCH_sim_hotpath.json";
  const std::string fault_json = dir + "/BENCH_fault_overhead.json";
  const std::string obs_json = dir + "/BENCH_obs_overhead.json";
  const std::string block_json = dir + "/BENCH_block_frame.json";

  ::setenv("SPTA_BENCH_RUNS", "50", /*overwrite=*/1);
  ::setenv("SPTA_BENCH_JSON_DIR", dir.c_str(), /*overwrite=*/1);
  const std::string cmd = std::string("\"") + argv[1] + "\"";
  const int rc = std::system(cmd.c_str());
  if (rc != 0) Fail("micro_sim_hotpath exited with nonzero status");

  std::map<std::string, std::string> hotpath_numbers;
  ValidateReport(hotpath_json, "sim_hotpath",
                 {"trace_records", "total_seconds", "runs_per_sec",
                  "minstr_per_sec", "run_latency_p50_ms",
                  "run_latency_p99_ms", "run_latency_mean_ms"},
                 &hotpath_numbers);

  // Sanity: a 50-run campaign must report a positive rate and runs=50.
  if (hotpath_numbers.count("runs") &&
      Number(hotpath_numbers, "runs", 0.0) != 50.0) {
    Fail("\"runs\" is " + hotpath_numbers["runs"] +
         ", expected 50 (SPTA_BENCH_RUNS)");
  }
  if (hotpath_numbers.count("runs_per_sec") &&
      !(Number(hotpath_numbers, "runs_per_sec", 0.0) > 0.0)) {
    Fail("\"runs_per_sec\" is not positive: " +
         hotpath_numbers["runs_per_sec"]);
  }

  // The zero-fault-path gate artifact: bit-identity must hold and the
  // measured overhead must be a real number (the perf bar itself lives in
  // the bench binary, not here).
  std::map<std::string, std::string> fault_numbers;
  ValidateReport(fault_json, "fault_overhead",
                 {"plain_runs_per_sec", "hooked_runs_per_sec",
                  "overhead_pct", "acceptance_pct", "gate_pct",
                  "checksum_match"},
                 &fault_numbers);
  if (fault_numbers.count("checksum_match") &&
      Number(fault_numbers, "checksum_match", 0.0) != 1.0) {
    Fail("fault_overhead: null-hook run was not bit-identical to plain run");
  }

  // The obs-span gate artifact: the disabled path must stay bit-identical
  // (checksum_match covers the tracer-enabled leg too — recording must not
  // perturb simulated behavior either).
  std::map<std::string, std::string> obs_numbers;
  ValidateReport(obs_json, "obs_overhead",
                 {"plain_runs_per_sec", "obs_runs_per_sec", "overhead_pct",
                  "enabled_runs_per_sec", "enabled_overhead_pct",
                  "trace_events_recorded", "acceptance_pct", "gate_pct",
                  "checksum_match"},
                 &obs_numbers);
  if (obs_numbers.count("checksum_match") &&
      Number(obs_numbers, "checksum_match", 0.0) != 1.0) {
    Fail("obs_overhead: span-wrapped run was not bit-identical to bare run");
  }
  if (obs_numbers.count("trace_events_recorded") &&
      !(Number(obs_numbers, "trace_events_recorded", 0.0) > 0.0)) {
    Fail("obs_overhead: enabled leg recorded no trace events");
  }

  // The block-frame artifact: the block loop must reproduce the record
  // loop's frozen checksum.
  std::map<std::string, std::string> block_numbers;
  ValidateReport(block_json, "block_frame",
                 {"record_runs_per_sec", "block_runs_per_sec",
                  "block_over_record_time", "checksum_match"},
                 &block_numbers);
  if (block_numbers.count("checksum_match") &&
      Number(block_numbers, "checksum_match", 0.0) != 1.0) {
    Fail("block_frame: block-frame runs were not bit-identical to records");
  }

  std::remove(hotpath_json.c_str());
  std::remove(fault_json.c_str());
  std::remove(obs_json.c_str());
  std::remove(block_json.c_str());

  // Service-fleet artifacts: the load generator emits the cold/warm and
  // drain report and the fleet A/B report. 50 runs keeps the warm streams short while
  // the bench's fixed 3,000-sample analyses keep the cold legs honest;
  // the >= 10x fleet gate self-disarms below 150 runs, but the
  // bit-identity checksum and the persistent warm-start hit are
  // behavioral guarantees that must hold at any scale.
  if (argc >= 3) {
    const std::string loadgen_json = dir + "/BENCH_service_loadgen.json";
    const std::string fleet_json = dir + "/BENCH_service_fleet.json";
    ::setenv("SPTA_BENCH_RUNS", "50", /*overwrite=*/1);
    const std::string loadgen_cmd = std::string("\"") + argv[2] + "\"";
    if (std::system(loadgen_cmd.c_str()) != 0) {
      Fail("micro_service_loadgen exited with nonzero status");
    }
    std::map<std::string, std::string> loadgen_numbers;
    ValidateReport(loadgen_json, "service_loadgen",
                   {"cold_analyze_ms", "warm_analyze_ms", "warm_speedup",
                    "warm_hits", "warm_requests_per_sec", "drain_seconds",
                    "drain_answered", "drain_burst", "acceptance_pass"},
                   &loadgen_numbers);
    std::map<std::string, std::string> fleet_numbers;
    ValidateReport(fleet_json, "service_fleet",
                   {"memo_off_warm_rps", "fleet_warm_rps",
                    "fleet_warm_speedup", "tcp_warm_rps", "cold_rps_1shard",
                    "cold_rps_nshard", "shard_scaling", "shards_n",
                    "cold_start_ms", "warm_start_ms", "warm_start_hit",
                    "checksum_match", "warm_frame_checksum", "gate_armed",
                    "gate_min_speedup", "acceptance_pass"},
                   &fleet_numbers);
    if (fleet_numbers.count("checksum_match") &&
        Number(fleet_numbers, "checksum_match", 0.0) != 1.0) {
      Fail("service_fleet: memo responses were not bit-identical to the "
           "memo-off fleet's");
    }
    if (fleet_numbers.count("warm_start_hit") &&
        Number(fleet_numbers, "warm_start_hit", 0.0) != 1.0) {
      Fail("service_fleet: restarted fleet did not serve a disk-warmed hit");
    }
    if (fleet_numbers.count("fleet_warm_rps") &&
        !(Number(fleet_numbers, "fleet_warm_rps", 0.0) > 0.0)) {
      Fail("service_fleet: fleet_warm_rps not positive");
    }
    if (Number(fleet_numbers, "gate_armed", 0.0) == 1.0 &&
        Number(fleet_numbers, "fleet_warm_speedup", 0.0) <
            Number(fleet_numbers, "gate_min_speedup", 10.0)) {
      Fail("service_fleet: armed >= 10x warm gate failed");
    }
    // The distributed-tracing artifact: the three-way A/B (untraced wire /
    // trace token parsed with the tracer off / tracer on). Bit-identity
    // across all legs and a non-empty enabled-leg span count are behavioral
    // guarantees; the 10% overhead gate arms inside the bench at scale.
    const std::string obs_trace_json = dir + "/BENCH_obs_trace.json";
    std::map<std::string, std::string> obs_trace_numbers;
    ValidateReport(obs_trace_json, "obs_trace",
                   {"disabled_ns_per_req", "disabled_traced_ns_per_req",
                    "enabled_ns_per_req", "disabled_overhead_pct",
                    "enabled_overhead_pct", "analysis_disabled_ns_per_req",
                    "analysis_traced_ns_per_req", "analysis_overhead_pct",
                    "trace_events_recorded", "checksum_match", "gate_armed",
                    "gate_token_pct", "gate_enabled_pct",
                    "gate_analysis_pct", "acceptance_pass"},
                   &obs_trace_numbers);
    if (obs_trace_numbers.count("checksum_match") &&
        Number(obs_trace_numbers, "checksum_match", 0.0) != 1.0) {
      Fail("obs_trace: traced legs were not bit-identical to the untraced "
           "leg");
    }
    if (obs_trace_numbers.count("trace_events_recorded") &&
        !(Number(obs_trace_numbers, "trace_events_recorded", 0.0) > 0.0)) {
      Fail("obs_trace: enabled leg recorded no spans");
    }
    std::remove(loadgen_json.c_str());
    std::remove(fleet_json.c_str());
    std::remove(obs_trace_json.c_str());
  }

  ::rmdir(dir.c_str());
  if (g_failures == 0) {
    std::printf("bench JSON schema check passed (%s)\n",
                argc >= 3 ? "all artifacts incl. service fleet"
                          : "the hot-path artifacts");
    return 0;
  }
  std::fprintf(stderr, "%d failure(s)\n", g_failures);
  return 1;
}
