// perfbench_probe: the benchmark's in-process helper.
//
// The benchmark's end-to-end numbers come from the shipped binaries
// (spta_cli, spta_serve); run.py times them from outside. This helper does
// what only an in-process caller can:
//
//   setup      time one TvcaApp + Platform construction (the campaign
//              set-up cost) in a fresh process;
//   campaign   check a CLI campaign CSV and its `analyze --per-path`
//              report against the library loop for the same seed. With
//              --trace 1 the loop runs serially and every call into a
//              layer's public functions is a span of the ledger;
//   prefill    wait for spta_serve's HEALTH ok, then answer the warm pool;
//   serve      the closed-loop serve_mixed client, which checks every
//              reply against the in-process analysis.
//
// Every subcommand prints one JSON object on stdout and exits 0 when all
// checks passed, 1 when an output was wrong, 2 on usage or I/O errors.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/campaign.hpp"
#include "analysis/checkpoint.hpp"
#include "apps/scheduler.hpp"
#include "apps/tvca.hpp"
#include "common/hash.hpp"
#include "evt/block_maxima.hpp"
#include "evt/pwcet.hpp"
#include "mbpta/iid_gate.hpp"
#include "mbpta/mbpta.hpp"
#include "mbpta/per_path.hpp"
#include "mbpta/report.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "sim/config.hpp"
#include "sim/platform.hpp"

namespace {

using namespace spta;
using Clock = std::chrono::steady_clock;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- Command line -----------------------------------------------------------

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 0; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) Fail("expected --flag, got " + key);
      values_[key.substr(2)] = argv[i + 1];
    }
    if (argc % 2 != 0) Fail(std::string("flag without value: ") + argv[argc - 1]);
  }
  std::string Str(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  std::uint64_t Uint(const std::string& key, std::uint64_t fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0') {
      Fail("--" + key + " needs an unsigned integer");
    }
    return v;
  }
  double Double(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
  }
  [[noreturn]] static void Fail(const std::string& message) {
    std::fprintf(stderr, "perfbench_probe: %s\n", message.c_str());
    std::exit(2);
  }

 private:
  std::map<std::string, std::string> values_;
};

// --- Output -----------------------------------------------------------------

/// A flat JSON object, written in insertion order.
class Json {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
    fields_.emplace_back(key, buf);
  }
  void Bool(const std::string& key, bool value) {
    fields_.emplace_back(key, value ? "true" : "false");
  }
  void Print() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += (i == 0 ? "\"" : ", \"") + fields_[i].first + "\": " +
             fields_[i].second;
    }
    std::printf("%s}\n", out.c_str());
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty set.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Args::Fail("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Runs body(i) for i in [0, n) on `threads` threads.
void ParallelFor(std::size_t n, std::size_t threads,
                 const std::function<void(std::size_t)>& body) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::max<std::size_t>(threads, 1); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) body(i);
    });
  }
  for (auto& th : pool) th.join();
}

// --- The span ledger ----------------------------------------------------------

/// In-memory spans of one thread; written out once, at exit.
class Ledger {
 public:
  explicit Ledger(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }
  int Open(const char* name, std::uint64_t run) {
    if (!on_) return -1;
    spans_.push_back({name, NowNs(), 0, open_, run});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void Close(int index) {
    if (index < 0) return;
    spans_[index].end = NowNs();
    open_ = spans_[index].parent;
  }

  /// Every span duration (ns), by span name.
  std::map<std::string, std::vector<double>> Durations() const {
    std::map<std::string, std::vector<double>> out;
    for (const Span& s : spans_) {
      out[s.name].push_back(static_cast<double>(s.end - s.begin));
    }
    return out;
  }
  /// Summed duration of the root spans, i.e. the time some layer covered.
  /// Nested spans split a root's time among layers without adding to it.
  double CoveredNs() const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.parent < 0) sum += static_cast<double>(s.end - s.begin);
    }
    return sum;
  }
  std::size_t size() const { return spans_.size(); }

  /// Appends Chrome trace events ("ph":"X", microseconds) for thread `tid`.
  void AppendChrome(std::int64_t origin_ns, int tid, std::string* out) const {
    char buf[256];
    for (const Span& s : spans_) {
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                    "\"args\":{\"run\":%llu}}",
                    out->empty() ? "" : ",\n", s.name,
                    static_cast<double>(s.begin - origin_ns) / 1e3,
                    static_cast<double>(s.end - s.begin) / 1e3, tid,
                    static_cast<unsigned long long>(s.run));
      out->append(buf);
    }
  }
  std::int64_t FirstNs() const { return spans_.empty() ? 0 : spans_[0].begin; }

 private:
  struct Span {
    const char* name;
    std::int64_t begin;
    std::int64_t end;
    int parent;
    std::uint64_t run;
  };
  bool on_;
  std::vector<Span> spans_;
  int open_ = -1;
};

class Scope {
 public:
  Scope(Ledger& ledger, const char* name, std::uint64_t run)
      : ledger_(ledger), index_(ledger.Open(name, run)) {}
  ~Scope() { ledger_.Close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Ledger& ledger_;
  int index_;
};

bool WriteChrome(const std::string& path, const std::vector<const Ledger*>& ledgers) {
  std::int64_t origin = 0;
  for (const Ledger* l : ledgers) {
    if (l->size() > 0 && (origin == 0 || l->FirstNs() < origin)) origin = l->FirstNs();
  }
  std::string events;
  for (std::size_t i = 0; i < ledgers.size(); ++i) {
    ledgers[i]->AppendChrome(origin, static_cast<int>(i) + 1, &events);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "{\"traceEvents\":[\n" << events << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

// --- setup ------------------------------------------------------------------

int RunSetup() {
  const auto start = Clock::now();
  const apps::TvcaApp app;
  sim::Platform platform(sim::RandLeon3Config(), 0);
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  Json json;
  json.Num("setup_s", seconds);
  json.Print();
  return 0;
}

// --- campaign ---------------------------------------------------------------

/// Record and timing totals of the frames a traced loop built.
struct FrameStats {
  std::uint64_t frames = 0;
  std::uint64_t task_records = 0;
  std::uint64_t frame_records = 0;
};

/// TvcaApp::BuildFrame, rebuilt from its public parts so the ledger sees
/// each layer: the scenario draw, the five job interpretations and the
/// composition. The campaign checks a sample of frames against BuildFrame.
apps::TvcaFrame BuildFrameTraced(const apps::TvcaApp& app, std::uint64_t seed,
                                 std::uint64_t run, Ledger& ledger,
                                 FrameStats* stats) {
  using apps::TvcaTask;
  Scope whole(ledger, "apps.build_frame", run);
  apps::TvcaFrame frame;
  {
    Scope s(ledger, "apps.draw_scenario", run);
    frame.scenario = app.DrawScenario(seed);
  }
  frame.path_id = frame.scenario.PathId();
  const std::array<std::pair<TvcaTask, std::uint64_t>, 5> jobs_in = {{
      {TvcaTask::kSensorAcq, seed},
      {TvcaTask::kActuatorX, seed},
      {TvcaTask::kActuatorX, DeriveSeed(seed, "x-job2")},
      {TvcaTask::kActuatorY, seed},
      {TvcaTask::kActuatorY, DeriveSeed(seed, "y-job2")},
  }};
  std::array<trace::Trace, 5> jobs;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    Scope s(ledger, "trace.interpret", run);
    jobs[j] = app.BuildTaskTrace(jobs_in[j].first, jobs_in[j].second,
                                 frame.scenario);
  }
  apps::FrameComposer::Options options;
  options.dispatch_overhead_instructions = app.config().dispatch_overhead;
  const std::vector<apps::FrameSlot> slots = {
      {&jobs[0], 1, 1, 0}, {&jobs[1], 1, 2, 0}, {&jobs[3], 1, 3, 0},
      {&jobs[2], 1, 2, 1}, {&jobs[4], 1, 3, 1},
  };
  {
    Scope s(ledger, "apps.compose", run);
    frame.trace = apps::FrameComposer(options).ComposeMajorFrame(slots);
  }
  frame.trace.path_signature = frame.path_id;
  ++stats->frames;
  for (const auto& j : jobs) stats->task_records += j.records.size();
  stats->frame_records += frame.trace.records.size();
  return frame;
}

/// The traced loop compares every this-many-th frame with BuildFrame.
constexpr std::size_t kFrameCheckEvery = 25;

bool SameFrame(const apps::TvcaFrame& a, const apps::TvcaFrame& b) {
  return a.path_id == b.path_id &&
         a.trace.path_signature == b.trace.path_signature &&
         a.trace.records == b.trace.records;
}

/// Parses a `cycles,path_id` sample CSV; false on any malformed row.
bool ReadSamplesCsv(const std::string& path,
                    std::vector<mbpta::PathObservation>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  if (!std::getline(in, line) || line.rfind("cycles", 0) != 0) return false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    char* end = nullptr;
    mbpta::PathObservation o;
    o.time = std::strtod(line.c_str(), &end);
    if (end == line.c_str()) return false;
    if (*end == ',') o.path_id = std::strtoull(end + 1, nullptr, 10);
    out->push_back(o);
  }
  return true;
}

/// Times `fn` `reps` times as spans named `name`; returns the last result.
template <typename F>
auto TimedReps(Ledger& ledger, const char* name, int reps, F fn) {
  for (int i = 1; i < reps; ++i) {
    Scope s(ledger, name, 0);
    fn();
  }
  Scope s(ledger, name, 0);
  return fn();
}

/// Runs the analysis layers on `obs` `reps` times each, one span per call:
/// the i.i.d. gate, the EVT fit, the whole AnalyzeSample and the per-path
/// analysis. Returns the last AnalyzeSample and AnalyzePerPath results.
std::pair<mbpta::MbptaResult, mbpta::PerPathResult> TimeAnalysis(
    Ledger& ledger, std::span<const mbpta::PathObservation> obs, int reps) {
  std::vector<double> times;
  times.reserve(obs.size());
  for (const auto& o : obs) times.push_back(o.time);
  const mbpta::MbptaOptions mopts;
  mbpta::PerPathOptions popts;
  popts.mbpta = mopts;
  TimedReps(ledger, "mbpta.iid_gate", reps,
            [&] { return mbpta::RunIidGate(times, mopts.iid); });
  TimedReps(ledger, "evt.fit", reps, [&] {
    return evt::PwcetCurve::FitFromSample(
        times, evt::SuggestBlockSize(times.size(), mopts.min_blocks));
  });
  return {TimedReps(ledger, "mbpta.analyze", reps,
                    [&] { return mbpta::AnalyzeSample(times, mopts); }),
          TimedReps(ledger, "mbpta.per_path", reps,
                    [&] { return mbpta::AnalyzePerPath(obs, popts); })};
}

double MedianMs(const std::map<std::string, std::vector<double>>& durations,
                const std::string& name, double scale_ns = 1e6) {
  const auto it = durations.find(name);
  return it == durations.end() ? 0.0 : Quantile(it->second, 0.5) / scale_ns;
}

int RunCampaign(const Args& args) {
  analysis::CampaignConfig cc;
  cc.runs = args.Uint("runs", 0);
  cc.master_seed = args.Uint("seed", 0);
  cc.distinct_scenarios = args.Uint("scenarios", 0);
  const std::size_t threads = args.Uint("threads", 1);
  const bool traced = args.Uint("trace", 0) != 0;
  const std::string journal_path = args.Str("journal", "");
  if (cc.runs == 0) Args::Fail("campaign needs --runs");

  std::vector<mbpta::PathObservation> cli;
  if (!ReadSamplesCsv(args.Str("csv", ""), &cli)) Args::Fail("unreadable --csv");
  const std::string cli_report = ReadFile(args.Str("report", ""));

  const apps::TvcaApp app;
  const sim::PlatformConfig config = sim::RandLeon3Config();
  std::vector<analysis::RunSample> samples(cc.runs);
  std::vector<apps::TvcaFrame> suite(cc.distinct_scenarios);
  Ledger ledger(traced);
  FrameStats frames;
  std::uint64_t frame_mismatches = 0;
  std::uint64_t frames_checked = 0;
  double loop_s = 0.0;
  double verify_s = 0.0;

  if (traced) {
    sim::Platform platform(config, 0);
    analysis::CheckpointJournal journal;
    std::string error;
    const auto check_frame = [&](const apps::TvcaFrame& f, std::uint64_t seed) {
      const auto t0 = Clock::now();
      ++frames_checked;
      if (!SameFrame(f, app.BuildFrame(seed))) ++frame_mismatches;
      verify_s += std::chrono::duration<double>(Clock::now() - t0).count();
    };
    const auto start = Clock::now();
    if (!journal_path.empty()) {
      analysis::CheckpointHeader header;
      header.campaign_seed = cc.master_seed;
      header.runs = cc.runs;
      header.distinct_scenarios = cc.distinct_scenarios;
      header.workload_digest = analysis::TvcaWorkloadDigest();
      Scope s(ledger, "analysis.journal_open", 0);
      if (!journal.OpenNew(journal_path, header, 1, &error)) Args::Fail(error);
    }
    if (!suite.empty()) {
      Scope s(ledger, "analysis.suite_build", 0);
      for (std::size_t i = 0; i < suite.size(); ++i) {
        suite[i] = BuildFrameTraced(app, analysis::TvcaScenarioSeed(cc, i), i,
                                    ledger, &frames);
      }
    }
    for (std::size_t i = 0; i < suite.size(); i += kFrameCheckEvery) {
      check_frame(suite[i], analysis::TvcaScenarioSeed(cc, i));
    }
    for (std::size_t r = 0; r < cc.runs; ++r) {
      apps::TvcaFrame local;
      const apps::TvcaFrame* frame = nullptr;
      if (!suite.empty()) {
        frame = &suite[r % suite.size()];
      } else {
        const std::uint64_t seed = analysis::TvcaScenarioSeed(cc, r);
        local = BuildFrameTraced(app, seed, r, ledger, &frames);
        if (r % kFrameCheckEvery == 0) check_frame(local, seed);
        frame = &local;
      }
      analysis::RunSample& s = samples[r];
      {
        Scope span(ledger, "sim.run", r);
        s.detail = platform.Run(frame->trace, analysis::TvcaRunSeed(cc, r));
      }
      s.cycles = static_cast<double>(s.detail.cycles);
      s.path_id = frame->path_id;
      if (journal.IsOpen()) {
        Scope span(ledger, "analysis.journal_append", r);
        if (!journal.Append(r, s, &error)) Args::Fail(error);
      }
      if (suite.empty()) {
        // Freeing a fresh frame (megabytes of records) is part of its cost.
        Scope span(ledger, "apps.release_frame", r);
        local = apps::TvcaFrame{};
      }
    }
    if (journal.IsOpen() && !journal.Close(&error)) Args::Fail(error);
    loop_s = std::chrono::duration<double>(Clock::now() - start).count() - verify_s;
  } else {
    ParallelFor(suite.size(), threads, [&](std::size_t i) {
      suite[i] = app.BuildFrame(analysis::TvcaScenarioSeed(cc, i));
    });
    std::vector<std::unique_ptr<sim::Platform>> platforms;
    std::atomic<std::size_t> slot{0};
    platforms.resize(std::max<std::size_t>(threads, 1));
    ParallelFor(cc.runs, threads, [&](std::size_t r) {
      thread_local std::size_t mine = slot.fetch_add(1);
      if (!platforms[mine]) platforms[mine] = std::make_unique<sim::Platform>(config, 0);
      apps::TvcaFrame local;
      const apps::TvcaFrame* frame = nullptr;
      if (!suite.empty()) {
        frame = &suite[r % suite.size()];
      } else {
        local = app.BuildFrame(analysis::TvcaScenarioSeed(cc, r));
        frame = &local;
      }
      analysis::RunSample& s = samples[r];
      s.detail = platforms[mine]->Run(frame->trace, analysis::TvcaRunSeed(cc, r));
      s.cycles = static_cast<double>(s.detail.cycles);
      s.path_id = frame->path_id;
    });
  }

  std::uint64_t sample_mismatches = cli.size() == cc.runs ? 0 : cc.runs;
  for (std::size_t r = 0; r < std::min<std::size_t>(cli.size(), cc.runs); ++r) {
    if (cli[r].time != samples[r].cycles || cli[r].path_id != samples[r].path_id) {
      ++sample_mismatches;
    }
  }

  // The reference analysis the CLI's report must reproduce.
  const auto [result, per_path] =
      TimeAnalysis(ledger, analysis::ToPathObservations(samples), traced ? 3 : 1);
  const std::string head = mbpta::RenderReport(result, "spta_cli analysis");
  const std::string tail = mbpta::RenderReport(per_path);
  const bool report_ok =
      cli_report.rfind(head, 0) == 0 && cli_report.size() >= tail.size() &&
      cli_report.compare(cli_report.size() - tail.size(), tail.size(), tail) == 0;

  Json json;
  json.Num("runs", static_cast<double>(cc.runs));
  json.Num("sample_mismatches", static_cast<double>(sample_mismatches));
  json.Bool("report_ok", report_ok);
  json.Num("frame_mismatches", static_cast<double>(frame_mismatches));
  json.Num("frames_checked", static_cast<double>(frames_checked));
  if (traced) {
    const auto agg = ledger.Durations();
    const auto total_ms = [&](const char* name) {
      const auto it = agg.find(name);
      double sum = 0.0;
      if (it != agg.end()) for (const double d : it->second) sum += d;
      return sum / 1e6;
    };
    const double n_frames = static_cast<double>(std::max<std::uint64_t>(frames.frames, 1));
    double cycles = 0.0, il1 = 0.0, dl1 = 0.0, sim_records = 0.0;
    for (std::size_t r = 0; r < cc.runs; ++r) {
      cycles += samples[r].cycles;
      il1 += static_cast<double>(samples[r].detail.il1.misses);
      dl1 += static_cast<double>(samples[r].detail.dl1.misses);
      sim_records += static_cast<double>(samples[r].detail.instructions);
    }
    const double covered_s = ledger.CoveredNs() / 1e9;
    const double analysis_s = (total_ms("mbpta.iid_gate") + total_ms("evt.fit") +
                               total_ms("mbpta.analyze") + total_ms("mbpta.per_path")) / 1e3;
    const double wall_s = loop_s + analysis_s;
    json.Num("loop_s", loop_s);
    json.Num("frame_build_s", total_ms("apps.build_frame") / 1e3);
    json.Num("sim_s", total_ms("sim.run") / 1e3);
    json.Num("campaign_layer_s", covered_s - analysis_s);
    json.Num("trace.interpret_ms", total_ms("trace.interpret") / n_frames);
    json.Num("trace.ns_per_record",
             total_ms("trace.interpret") * 1e6 /
                 std::max<double>(static_cast<double>(frames.task_records), 1.0));
    json.Num("apps.frame_records", static_cast<double>(frames.frame_records) / n_frames);
    json.Num("apps.compose_ms", total_ms("apps.compose") / n_frames);
    json.Num("apps.frame_mb", static_cast<double>(frames.frame_records) *
                                  sizeof(trace::TraceRecord) / n_frames / 1e6);
    json.Num("apps.draw_scenario_us", total_ms("apps.draw_scenario") * 1e3 / n_frames);
    json.Num("apps.build_frame_ms", total_ms("apps.build_frame") / n_frames);
    json.Num("sim.run_ms_p50", MedianMs(agg, "sim.run"));
    json.Num("sim.run_ms_p99", agg.count("sim.run") ? Quantile(agg.at("sim.run"), 0.99) / 1e6 : 0.0);
    json.Num("sim.ns_per_record", total_ms("sim.run") * 1e6 / std::max(sim_records, 1.0));
    json.Num("sim.cycles_sum", cycles);
    json.Num("sim.il1_misses", il1);
    json.Num("sim.dl1_misses", dl1);
    json.Num("analysis.suite_build_s", total_ms("analysis.suite_build") / 1e3);
    json.Num("analysis.frame_builds", static_cast<double>(frames.frames));
    json.Num("analysis.journal_append_us", MedianMs(agg, "analysis.journal_append", 1e3));
    json.Num("mbpta.iid_gate_ms", MedianMs(agg, "mbpta.iid_gate"));
    json.Num("evt.fit_ms", MedianMs(agg, "evt.fit"));
    json.Num("mbpta.analyze_ms", MedianMs(agg, "mbpta.analyze"));
    json.Num("mbpta.per_path_ms", MedianMs(agg, "mbpta.per_path"));
    json.Num("bench.unattributed_frac", wall_s > 0 ? (wall_s - covered_s) / wall_s : 0.0);
    const std::string chrome = args.Str("chrome", "");
    if (!chrome.empty() && !WriteChrome(chrome, {&ledger})) Args::Fail("cannot write " + chrome);
  }
  json.Print();
  return sample_mismatches == 0 && frame_mismatches == 0 && report_ok ? 0 : 1;
}

// --- The spta_serve client --------------------------------------------------

constexpr std::size_t kColdObservations = 3000;
constexpr std::size_t kChunkObservations = 300;
constexpr std::size_t kChunksPerSession = 10;
constexpr std::size_t kWarmPool = 32;
constexpr int kConnections = 2;
/// The server's peak RSS is read once the connections completed this many
/// operations, so it reflects a fixed amount of work (the memo and cache
/// grow with every analysis) rather than the host's speed during the run.
constexpr std::uint64_t kRssCheckpointOps = 12000;

/// A TVCA-like sample: the eight application paths with the TVCA mode
/// probabilities, a path-dependent base time and a Gumbel-shaped tail.
std::vector<mbpta::PathObservation> GenerateSample(std::uint64_t seed, std::size_t n) {
  std::mt19937_64 rng(seed);
  const auto unit = [&] {
    return (static_cast<double>(rng() >> 11) + 0.5) * 0x1.0p-53;
  };
  std::vector<mbpta::PathObservation> out(n);
  for (auto& o : out) {
    const bool cal = unit() < 0.2;
    const bool mx = unit() < 0.3;
    const bool my = unit() < 0.3;
    o.path_id = (cal ? 1u : 0u) | (mx ? 2u : 0u) | (my ? 4u : 0u);
    const double base = 866000.0 + (cal ? 9000.0 : 0.0) + (mx ? 11000.0 : 0.0) +
                        (my ? 12500.0 : 0.0);
    o.time = std::round(base - 4000.0 * std::log(-std::log(unit())));
  }
  return out;
}

std::string Frame(service::RequestKind kind, service::Args args,
                  std::string payload = {}) {
  service::Request request;
  request.kind = kind;
  request.args = std::move(args);
  request.payload = std::move(payload);
  std::string out;
  service::AppendRequestFrame(request, &out);
  return out;
}

std::string AnalyzeFrame(std::span<const mbpta::PathObservation> obs, bool per_path) {
  service::Args args;
  args.SetUint("count", obs.size());
  if (per_path) args.SetUint("per_path", 1);
  return Frame(service::RequestKind::kAnalyze, std::move(args),
               service::EncodeSamplePayload(obs));
}

/// One blocking TCP connection speaking spta1 frames.
class Conn {
 public:
  Conn() = default;
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Connect(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval tv{30, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  }

  /// Sends `request` and reads one reply. False on a transport failure;
  /// `ok` tells OK from ERR. `wire` accumulates the bytes moved.
  bool Call(const std::string& request, bool* ok, std::string* body, std::size_t* wire) {
    for (std::size_t sent = 0; sent < request.size();) {
      const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    std::size_t header_end;
    while ((header_end = buffer_.find('\n')) == std::string::npos) {
      if (!Fill()) return false;
    }
    char status[16] = {0};
    unsigned long long nbytes = 0;
    if (std::sscanf(buffer_.c_str(), "spta1 %15s %llu", status, &nbytes) != 2) return false;
    while (buffer_.size() < header_end + 1 + nbytes) {
      if (!Fill()) return false;
    }
    *ok = std::strcmp(status, "OK") == 0;
    body->assign(buffer_, header_end + 1, nbytes);
    buffer_.erase(0, header_end + 1 + nbytes);
    *wire += request.size() + header_end + 1 + nbytes;
    return true;
  }

 private:
  bool Fill() {
    char chunk[1 << 16];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

/// The reply with its volatile `analyze_us=` token removed; the token's
/// value goes to `analyze_us`.
std::string StripTiming(const std::string& body, double* analyze_us) {
  const std::size_t first_line = body.find('\n');
  const std::size_t at = body.find("analyze_us=");
  if (at == std::string::npos || at > first_line) return body;
  std::size_t end = std::min(body.find_first_of(" \n", at), body.size());
  if (analyze_us != nullptr) *analyze_us = std::strtod(body.c_str() + at + 11, nullptr);
  if (end < body.size() && body[end] == ' ') ++end;
  return body.substr(0, at) + body.substr(end);
}

/// True when an ANALYZE reply carries exactly the in-process analysis of
/// `obs`: the pWCET, verdict fields and per-path envelope bit for bit, and
/// the rendered report byte for byte.
bool MatchesInProcess(const std::string& body,
                      std::span<const mbpta::PathObservation> obs, bool per_path) {
  const std::size_t nl = body.find('\n');
  if (nl == std::string::npos) return false;
  const service::Args got = service::Args::Parse(std::string_view(body).substr(0, nl));
  std::vector<double> times;
  times.reserve(obs.size());
  for (const auto& o : obs) times.push_back(o.time);
  const mbpta::MbptaOptions mopts;
  const mbpta::MbptaResult result = mbpta::AnalyzeSample(times, mopts);
  service::Args want;
  want.SetUint("usable", result.usable ? 1 : 0);
  want.SetUint("sample_size", result.sample_size);
  want.SetUint("block_size", result.block_size);
  want.SetUint("iid_pass", result.iid.Passed() ? 1 : 0);
  const double prob = 1e-12;
  if (result.curve.has_value()) {
    want.SetDouble("pwcet", result.curve->QuantileForExceedance(prob));
  }
  std::string report = mbpta::RenderReport(result, "spta_serve analysis");
  if (per_path) {
    mbpta::PerPathOptions popts;
    popts.mbpta = mopts;
    const mbpta::PerPathResult pp = mbpta::AnalyzePerPath(obs, popts);
    want.SetUint("paths", pp.paths.size());
    want.SetUint("analyzed_paths", pp.analyzed_count());
    if (pp.analyzed_count() >= 1) want.SetDouble("envelope", pp.EnvelopeAt(prob));
    report += mbpta::RenderReport(pp);
  }
  if (result.curve.has_value() != got.Has("pwcet")) return false;
  for (const auto& [key, value] : want.values()) {
    if (got.GetString(key, "\x01") != value) return false;
  }
  return body.compare(nl + 1, std::string::npos, report) == 0;
}

std::vector<std::vector<mbpta::PathObservation>> WarmPool(std::uint64_t seed) {
  std::vector<std::vector<mbpta::PathObservation>> pool;
  for (std::size_t i = 0; i < kWarmPool; ++i) {
    pool.push_back(GenerateSample(DeriveSeed(DeriveSeed(seed, "warm"), i), kColdObservations));
  }
  return pool;
}
bool WarmPerPath(std::size_t i) { return i % 2 == 1; }

int RunPrefill(const Args& args) {
  const auto port = static_cast<std::uint16_t>(args.Uint("port", 0));
  const auto pool = WarmPool(args.Uint("seed", 0));
  Conn probe;
  if (!probe.Connect(port)) Args::Fail("cannot connect");
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  for (;;) {
    bool ok = false;
    std::string body;
    std::size_t wire = 0;
    if (!probe.Call(Frame(service::RequestKind::kHealth, {}), &ok, &body, &wire)) {
      Args::Fail("HEALTH failed");
    }
    if (ok && body.find("status=ok") != std::string::npos) break;
    if (Clock::now() > deadline) Args::Fail("server never became healthy");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Conn conn;
      if (!conn.Connect(port)) {
        ++failures;
        return;
      }
      for (std::size_t i = c; i < pool.size(); i += kConnections) {
        const std::string frame = AnalyzeFrame(pool[i], WarmPerPath(i));
        for (int pass = 0; pass < 2; ++pass) {
          bool ok = false;
          std::string body;
          std::size_t wire = 0;
          if (!conn.Call(frame, &ok, &body, &wire) || !ok) ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  Json json;
  json.Num("warm_samples", static_cast<double>(pool.size()));
  json.Num("failures", failures.load());
  json.Print();
  return failures.load() == 0 ? 0 : 1;
}

/// Counters read from METRICS and METRICS_PROM.
struct FleetCounters {
  std::map<std::string, double> values;
  std::vector<double> routed;
  double memo_hits = 0.0;
};

bool ReadCounters(Conn& conn, FleetCounters* out) {
  bool ok = false;
  std::string body;
  std::size_t wire = 0;
  if (!conn.Call(Frame(service::RequestKind::kMetrics, {}), &ok, &body, &wire) || !ok) {
    return false;
  }
  const service::Args args = service::Args::Parse(body.substr(0, body.find('\n')));
  for (const auto& [k, v] : args.values()) out->values[k] = std::strtod(v.c_str(), nullptr);
  if (!conn.Call(Frame(service::RequestKind::kMetricsProm, {}), &ok, &body, &wire) || !ok) {
    return false;
  }
  std::istringstream lines(body);
  for (std::string line; std::getline(lines, line);) {
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const double v = std::strtod(line.c_str() + space + 1, nullptr);
    if (line.rfind("spta_fleet_routed_total{", 0) == 0) out->routed.push_back(v);
    if (line.rfind("spta_fleet_memo_hits_total{", 0) == 0) out->memo_hits += v;
  }
  return true;
}

/// VmHWM (peak resident set) of `pid` in MB (0 when unreadable).
double PeakRssMb(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

/// utime + stime of `pid` in microseconds (0 when unreadable).
double ProcessCpuUs(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(paren + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 0; i < 13 && fields >> field; ++i) {
    if (i == 11 || i == 12) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks * 1e6 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

enum Kind { kWarm = 0, kCold = 1, kSession = 2 };

/// One timed operation of the closed loop.
struct Op {
  Kind kind = kWarm;
  double latency_us = 0.0;
  double server_us = 0.0;  ///< analyze_us of the (final) ANALYZE reply.
  double encode_us = 0.0;
  bool failed = false;
  double done_s = 0.0;  ///< Completion, seconds since the phase started.
  std::uint64_t requests = 0;
  // Enough to recompute the expected reply after the loop.
  std::uint64_t sample_seed = 0;
  bool per_path = false;
  std::vector<std::uint64_t> chunk_seeds;
  std::string body;
};

struct LoopResult {
  std::vector<Op> ops;
  std::uint64_t requests = 0;
  std::uint64_t transport_failures = 0;
  std::size_t wire_bytes = 0;
  double wall_s = 0.0;
  double covered_s = 0.0;
};

/// One connection's closed loop: the next request goes out only after the
/// reply to the previous one arrived.
void ConnectionLoop(std::uint16_t port, std::uint64_t seed, int index, long pid,
                    std::atomic<std::uint64_t>* ops_done, double* rss_mb,
                    Clock::time_point start, Clock::time_point deadline,
                    const std::vector<std::string>& warm_frames,
                    const std::vector<std::string>& warm_refs, Ledger& ledger,
                    LoopResult* out) {
  std::mt19937_64 rng(DeriveSeed(seed, static_cast<std::uint64_t>(index) + 1));
  const auto unit = [&] { return static_cast<double>(rng() >> 11) * 0x1.0p-53; };
  Conn conn;
  if (!conn.Connect(port)) {
    ++out->transport_failures;
    return;
  }
  std::uint64_t generation = 0;
  std::size_t chunks = 0;
  std::vector<std::uint64_t> chunk_seeds;
  const auto session_name = [&] {
    return "pb" + std::to_string(index) + "g" + std::to_string(generation);
  };
  const auto session_verb = [&](service::RequestKind kind) {
    service::Args a;
    a.Set("session", session_name());
    return Frame(kind, std::move(a));
  };
  bool ok = false;
  std::string body;
  const auto call = [&](const std::string& frame) {
    ++out->requests;
    if (!conn.Call(frame, &ok, &body, &out->wire_bytes)) {
      ++out->transport_failures;
      return false;
    }
    return true;
  };
  if (!call(session_verb(service::RequestKind::kOpen)) || !ok) return;

  std::uint64_t op_index = 0;
  while (Clock::now() < deadline) {
    Op op;
    const std::uint64_t requests_before = out->requests;
    const double u = unit();
    op.kind = u < 0.60 ? kWarm : (u < 0.85 ? kCold : kSession);
    const std::uint64_t draw = rng();
    if (op.kind == kWarm) {
      const std::size_t w = draw % warm_frames.size();
      Scope span(ledger, "service.warm", op_index);
      const auto t0 = Clock::now();
      if (!call(warm_frames[w])) return;
      op.latency_us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
      op.failed = !ok || StripTiming(body, &op.server_us) != warm_refs[w];
    } else if (op.kind == kCold) {
      op.sample_seed = DeriveSeed(draw, "cold");
      op.per_path = (draw & 1) != 0;
      std::string frame;
      {
        Scope span(ledger, "service.encode", op_index);
        const auto t0 = Clock::now();
        frame = AnalyzeFrame(GenerateSample(op.sample_seed, kColdObservations), op.per_path);
        op.encode_us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
      }
      Scope span(ledger, "service.cold", op_index);
      const auto t0 = Clock::now();
      if (!call(frame)) return;
      op.latency_us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
      op.failed = !ok;
      op.body = StripTiming(body, &op.server_us);
    } else {
      chunk_seeds.push_back(DeriveSeed(draw, "chunk"));
      std::string append;
      {
        Scope span(ledger, "service.encode", op_index);
        const auto t0 = Clock::now();
        service::Args a;
        a.Set("session", session_name());
        a.SetUint("count", kChunkObservations);
        append = Frame(service::RequestKind::kAppend, std::move(a),
                       service::EncodeSamplePayload(
                           GenerateSample(chunk_seeds.back(), kChunkObservations)));
        op.encode_us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
      }
      Scope span(ledger, "service.session", op_index);
      const auto t0 = Clock::now();
      if (!call(append)) return;
      const bool append_ok =
          ok && service::Args::Parse(std::string_view(body).substr(0, body.find('\n')))
                        .GetUint("total", 0) == chunk_seeds.size() * kChunkObservations;
      if (!call(session_verb(service::RequestKind::kAnalyze))) return;
      op.latency_us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
      op.failed = !ok || !append_ok;
      op.body = StripTiming(body, &op.server_us);
      op.chunk_seeds = chunk_seeds;
      if (++chunks == kChunksPerSession) {
        Scope reopen(ledger, "service.reopen", op_index);
        if (!call(session_verb(service::RequestKind::kClose)) || !ok) op.failed = true;
        ++generation;
        chunks = 0;
        chunk_seeds.clear();
        if (!call(session_verb(service::RequestKind::kOpen)) || !ok) op.failed = true;
      }
    }
    op.requests = out->requests - requests_before;
    op.done_s = std::chrono::duration<double>(Clock::now() - start).count();
    out->ops.push_back(std::move(op));
    ++op_index;
    if (ops_done->fetch_add(1) + 1 == kRssCheckpointOps) *rss_mb = PeakRssMb(pid);
  }
  call(session_verb(service::RequestKind::kClose));
  out->wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  out->covered_s = ledger.CoveredNs() / 1e9;
}

struct Phase {
  std::vector<LoopResult> loops;
  double rss_mb = 0.0;  ///< Server peak RSS at kRssCheckpointOps, 0 if not reached.
  std::vector<Ledger> ledgers;
  double wall_s = 0.0;
  FleetCounters before, after;
  double cpu_us = 0.0;
};

Phase RunPhase(std::uint16_t port, std::uint64_t seed, double seconds, bool traced,
               long pid, const std::vector<std::string>& warm_frames,
               const std::vector<std::string>& warm_refs, Conn& control) {
  Phase phase;
  phase.loops.resize(kConnections);
  for (int c = 0; c < kConnections; ++c) phase.ledgers.emplace_back(traced);
  if (!ReadCounters(control, &phase.before)) Args::Fail("METRICS failed");
  const double cpu0 = ProcessCpuUs(pid);
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  std::atomic<std::uint64_t> ops_done{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back(ConnectionLoop, port, DeriveSeed(seed, traced ? "traced" : "plain"),
                         c, pid, &ops_done, &phase.rss_mb, start, deadline,
                         std::cref(warm_frames), std::cref(warm_refs),
                         std::ref(phase.ledgers[c]), &phase.loops[c]);
  }
  for (auto& t : threads) t.join();
  phase.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  phase.cpu_us = ProcessCpuUs(pid) - cpu0;
  if (!ReadCounters(control, &phase.after)) Args::Fail("METRICS failed");
  return phase;
}

int RunServe(const Args& args) {
  const auto port = static_cast<std::uint16_t>(args.Uint("port", 0));
  const std::uint64_t seed = args.Uint("seed", 0);
  const double seconds = args.Double("seconds", 10.0);
  const bool traced = args.Uint("trace", 0) != 0;
  const long pid = static_cast<long>(args.Uint("pid", 0));
  const std::size_t threads = args.Uint("threads", 1);

  // Warm frames are encoded once; their reference reply is the cache-hit
  // answer, checked here against the in-process analysis.
  const auto pool = WarmPool(seed);
  std::vector<std::string> warm_frames, warm_refs(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    warm_frames.push_back(AnalyzeFrame(pool[i], WarmPerPath(i)));
  }
  Conn control;
  if (!control.Connect(port)) Args::Fail("cannot connect");
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    bool ok = false;
    std::string body;
    std::size_t wire = 0;
    if (!control.Call(warm_frames[i], &ok, &body, &wire)) Args::Fail("warm reference failed");
    warm_refs[i] = StripTiming(body, nullptr);
    if (!ok || warm_refs[i].find("cache=hit") == std::string::npos ||
        !MatchesInProcess(warm_refs[i], pool[i], WarmPerPath(i))) {
      ++failed;
    }
  }

  double untraced_rps = 0.0;
  if (traced) {
    const Phase plain = RunPhase(port, seed, seconds, false, pid, warm_frames, warm_refs, control);
    std::uint64_t requests = 0;
    for (const auto& l : plain.loops) requests += l.requests;
    untraced_rps = static_cast<double>(requests) / plain.wall_s;
  }
  Phase phase = RunPhase(port, seed, seconds, traced, pid, warm_frames, warm_refs, control);

  // Check every cold and session reply against the in-process analysis.
  std::vector<Op*> to_check;
  std::vector<double> lat[3], exec[3], transport[3], encode;
  // Throughput per one-second window of the phase; the median window is
  // steadier than the whole-phase mean on a host whose speed shifts.
  std::vector<double> window_requests(static_cast<std::size_t>(seconds), 0.0);
  const double window_s = 1.0;
  std::uint64_t requests = 0, transport_failures = 0, attempted = 0;
  std::size_t wire = 0;
  double covered = 0.0, loop_wall = 0.0;
  for (auto& l : phase.loops) {
    requests += l.requests;
    transport_failures += l.transport_failures;
    wire += l.wire_bytes;
    covered += l.covered_s;
    loop_wall += l.wall_s;
    for (Op& op : l.ops) {
      ++attempted;
      const auto w = static_cast<std::size_t>(op.done_s / window_s);
      if (w < window_requests.size()) window_requests[w] += static_cast<double>(op.requests);
      lat[op.kind].push_back(op.latency_us);
      exec[op.kind].push_back(op.server_us);
      transport[op.kind].push_back(op.latency_us - op.server_us);
      if (op.kind != kWarm) encode.push_back(op.encode_us);
      if (op.failed) {
        ++failed;
      } else if (op.kind != kWarm) {
        to_check.push_back(&op);
      }
    }
  }
  attempted += transport_failures;
  failed += transport_failures;
  std::atomic<std::uint64_t> wrong{0};
  ParallelFor(to_check.size(), threads, [&](std::size_t i) {
    const Op& op = *to_check[i];
    std::vector<mbpta::PathObservation> obs;
    if (op.kind == kCold) {
      obs = GenerateSample(op.sample_seed, kColdObservations);
    } else {
      for (const std::uint64_t s : op.chunk_seeds) {
        const auto chunk = GenerateSample(s, kChunkObservations);
        obs.insert(obs.end(), chunk.begin(), chunk.end());
      }
    }
    if (!MatchesInProcess(op.body, obs, op.per_path)) ++wrong;
  });
  failed += wrong.load();

  const auto delta = [&](const char* key) {
    const auto a = phase.after.values.find(key);
    const auto b = phase.before.values.find(key);
    return (a == phase.after.values.end() ? 0.0 : a->second) -
           (b == phase.before.values.end() ? 0.0 : b->second);
  };
  std::vector<double> routed;
  for (std::size_t s = 0; s < phase.after.routed.size(); ++s) {
    routed.push_back(phase.after.routed[s] -
                     (s < phase.before.routed.size() ? phase.before.routed[s] : 0.0));
  }
  const double analyze_requests = delta("requests_ANALYZE");
  const double lookups = delta("cache_hits") + delta("cache_misses");

  Json json;
  json.Num("attempted", static_cast<double>(attempted));
  json.Num("failed", static_cast<double>(failed));
  json.Num("requests", static_cast<double>(requests));
  json.Num("wall_s", phase.wall_s);
  json.Num("requests_per_s", static_cast<double>(requests) / phase.wall_s);
  json.Num("window_requests_per_s", Quantile(window_requests, 0.5) / window_s);
  json.Num("rss_mb_at_checkpoint", phase.rss_mb);
  const char* names[3] = {"warm", "cold", "session"};
  for (int k = 0; k < 3; ++k) json.Num(std::string("count.") + names[k], lat[k].size());
  json.Num("cold_ms_p50", Quantile(lat[kCold], 0.5) / 1e3);
  json.Num("cold_ms_p99", Quantile(lat[kCold], 0.99) / 1e3);
  json.Num("warm_us_p50", Quantile(lat[kWarm], 0.5));
  json.Num("warm_us_p99", Quantile(lat[kWarm], 0.99));
  json.Num("session_ms_p50", Quantile(lat[kSession], 0.5) / 1e3);
  json.Num("session_ms_p99", Quantile(lat[kSession], 0.99) / 1e3);
  json.Num("exec_us.cold", Quantile(exec[kCold], 0.5));
  json.Num("exec_us.session", Quantile(exec[kSession], 0.5));
  json.Num("transport_us.warm", Quantile(transport[kWarm], 0.5));
  json.Num("transport_us.cold", Quantile(transport[kCold], 0.5));
  json.Num("transport_us_p99.warm", Quantile(transport[kWarm], 0.99));
  json.Num("transport_us_p99.cold", Quantile(transport[kCold], 0.99));
  json.Num("encode_us", Quantile(encode, 0.5));
  json.Num("wire_kb_per_req", static_cast<double>(wire) / 1024.0 /
                                  std::max<double>(static_cast<double>(requests), 1.0));
  json.Num("memo_hit_ratio", analyze_requests > 0
                                 ? (phase.after.memo_hits - phase.before.memo_hits) /
                                       analyze_requests
                                 : 0.0);
  json.Num("cache_hit_ratio", lookups > 0 ? delta("cache_hits") / lookups : 0.0);
  json.Num("shard_imbalance",
           Mean(routed) > 0 ? *std::max_element(routed.begin(), routed.end()) / Mean(routed)
                            : 0.0);
  json.Num("server_cpu_us_per_req",
           phase.cpu_us / std::max<double>(static_cast<double>(requests), 1.0));
  json.Num("rejects", delta("errors_total") + delta("busy_rejections") +
                          delta("fleet_shed_deadline"));
  if (traced) {
    json.Num("unattributed_frac", loop_wall > 0 ? (loop_wall - covered) / loop_wall : 0.0);
    json.Num("trace_overhead_frac",
             untraced_rps / (static_cast<double>(requests) / phase.wall_s) - 1.0);
    // The analysis layers, timed in-process on the first cold samples.
    Ledger ledger(true);
    std::size_t timed = 0;
    for (const Op* op : to_check) {
      if (op->kind != kCold || ++timed > 64) continue;
      TimeAnalysis(ledger, GenerateSample(op->sample_seed, kColdObservations), 1);
    }
    const auto agg = ledger.Durations();
    json.Num("mbpta.iid_gate_ms", MedianMs(agg, "mbpta.iid_gate"));
    json.Num("evt.fit_ms", MedianMs(agg, "evt.fit"));
    json.Num("mbpta.analyze_ms", MedianMs(agg, "mbpta.analyze"));
    json.Num("mbpta.per_path_ms", MedianMs(agg, "mbpta.per_path"));
    const std::string chrome = args.Str("chrome", "");
    std::vector<const Ledger*> all;
    for (const auto& l : phase.ledgers) all.push_back(&l);
    all.push_back(&ledger);
    if (!chrome.empty() && !WriteChrome(chrome, all)) Args::Fail("cannot write " + chrome);
  }
  json.Print();
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Args::Fail("usage: perfbench_probe <setup|campaign|prefill|serve> [--flag value]...");
  const std::string command = argv[1];
  const Args args(argc - 2, argv + 2);
  if (command == "setup") return RunSetup();
  if (command == "campaign") return RunCampaign(args);
  if (command == "prefill") return RunPrefill(args);
  if (command == "serve") return RunServe(args);
  Args::Fail("unknown subcommand " + command);
}
