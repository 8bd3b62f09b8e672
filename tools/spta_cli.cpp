// spta_cli — command-line front end to the SpacePTA toolkit.
//
//   spta_cli campaign  --platform rand|det|rand-op --runs N --seed S
//                      [--scenarios K] [--jobs J] [--output samples.csv]
//                      [--checkpoint J.ckpt [--resume] [--fsync-interval N]]
//                      [--seu-rate R] [--reseed-dropout P] [--fault-seed S]
//                      [--annotate]
//       Runs a TVCA measurement campaign and writes cycles,path_id CSV.
//       --jobs J fans the runs across J worker threads (default: hardware
//       concurrency); the samples are bit-identical for every J.
//       --checkpoint journals every completed run (append-only, fsync'd);
//       --resume restores the journal and re-executes only the missing
//       runs, bit-identically to an uninterrupted campaign.
//       --seu-rate/--reseed-dropout run the campaign under the
//       deterministic fault plan (docs/FAULTS.md); the CSV is then
//       annotated as tainted and analysis will refuse to fit a pWCET.
//       --trace-out FILE enables the in-process tracer for the campaign
//       and exports a Chrome/Perfetto trace; --counters-out FILE writes
//       the per-run microarchitectural counter CSV plus a
//       FILE.summary.json campaign aggregate (docs/OBSERVABILITY.md).
//       Neither flag perturbs the sample: the exported cycles are
//       bit-identical with and without them.
//
//   spta_cli analyze   [--input samples.csv] [--block-size B] [--lags L]
//                      [--alpha A] [--per-path] [--min-path-samples M]
//       Reads a sample (file or stdin) and runs the guarded MBPTA
//       pipeline: integrity/taint checks, i.i.d. gate, Gumbel fit, GOF
//       diagnostics, pWCET table, path coverage. Exit code 0 iff the
//       analysis is usable; tainted/corrupted samples are rejected with a
//       typed diagnosis (exit 2), never mis-reported.
//
//   spta_cli convergence [--input samples.csv] [--initial N] [--step N]
//                        [--prob P] [--tol T]
//       Applies the MBPTA convergence criterion over sample prefixes.
//
//   spta_cli record    --trace out.trc [--scenario S]
//       Records one TVCA major-frame trace to a binary trace file.
//
//   spta_cli simulate  --trace in.trc --platform rand|det|rand-op
//                      --runs N [--seed S] [--jobs J] [--output samples.csv]
//                      [--checkpoint J.ckpt [--resume] [--fsync-interval N]]
//                      [--seu-rate R] [--reseed-dropout P] [--fault-seed S]
//       Replays a recorded trace N times (fresh platform seed per run)
//       and writes the execution times as CSV.
//
//   campaign and simulate differ only in their workload (TVCA frames or
//   one recorded trace); both hand it to one analysis::RunCampaign call,
//   so --jobs, --checkpoint/--resume, the fault flags and the obs flags
//   mean the same on both. --checkpoint journals clean campaigns only:
//   with a fault flag the campaign is refused (exit 2, no journal).
//
//   spta_cli trace info <file>
//       Prints a record file's size on disk, record count and path
//       signature; a damaged or alien file is rejected with a diagnostic
//       (exit 2), never a crash.
//
//   spta_cli trace-view [--merge OUT] FILE...
//       Summarizes Chrome trace-event JSON exports (spta_serve
//       --trace-dir, spta_client --trace-out, flight-recorder dumps):
//       event counts and the distributed trace ids each file carries.
//       --merge OUT splices every file's traceEvents into one
//       Perfetto-loadable document — offline stitching of a distributed
//       trace when no spta_fleet supervisor did it (docs/OBSERVABILITY.md).
//
// Every subcommand accepts exactly the flags listed for it: any other flag
// (a typo such as `--job 4`, or the retired `--batch-lanes` and `--atlas`)
// exits 2 with the subcommand's usage line and runs nothing.
//
// File outputs are crash-safe: the CSV is staged in a tmp file, fsync'd
// and renamed into place, so a crash mid-export never publishes a
// truncated sample.
//
// The analyze/convergence commands work on measurements from ANY source
// (a real board, another simulator) — the bundled simulator is just one
// producer of the CSV format.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <set>
#include <sstream>

#include "analysis/campaign.hpp"
#include "analysis/diagnosis.hpp"
#include "analysis/sample_io.hpp"
#include "apps/tvca.hpp"
#include "common/atomic_file.hpp"
#include "common/flags.hpp"
#include "common/histogram.hpp"
#include "fault/campaign.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "obs/trace_merge.hpp"
#include "mbpta/convergence.hpp"
#include "mbpta/mbpta.hpp"
#include "mbpta/path_coverage.hpp"
#include "mbpta/per_path.hpp"
#include "mbpta/report.hpp"
#include "sim/platform.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace spta;

std::vector<mbpta::PathObservation> LoadSamples(const Flags& flags,
                                                analysis::CsvMeta* meta) {
  const std::string input = flags.GetString("input");
  std::ostringstream text;
  if (input.empty() || input == "-") {
    text << std::cin.rdbuf();
  } else {
    std::ifstream in(input, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "spta_cli: cannot open '%s'\n", input.c_str());
      std::exit(2);
    }
    text << in.rdbuf();
  }
  std::vector<mbpta::PathObservation> obs;
  std::string error;
  if (!analysis::TryReadSamplesCsv(text.str(), &obs, meta, &error)) {
    std::fprintf(stderr, "spta_cli: %s\n", error.c_str());
    std::exit(2);
  }
  return obs;
}

/// Parses --jobs: 0 or absent = hardware concurrency; negative is an
/// operator error (exits), not a 2^64-thread request.
std::size_t JobsFlag(const Flags& flags) {
  const std::int64_t jobs = flags.GetInt("jobs", 0);
  if (jobs < 0) {
    std::fprintf(stderr, "spta_cli: --jobs must be >= 0 (got %lld)\n",
                 static_cast<long long>(jobs));
    std::exit(2);
  }
  return jobs == 0 ? analysis::DefaultJobs()
                   : static_cast<std::size_t>(jobs);
}

std::vector<double> Times(
    const std::vector<mbpta::PathObservation>& obs) {
  std::vector<double> t;
  t.reserve(obs.size());
  for (const auto& o : obs) t.push_back(o.time);
  return t;
}

sim::PlatformConfig PlatformFromFlags(const Flags& flags, bool* ok) {
  const std::string platform_name = flags.GetString("platform", "rand");
  *ok = true;
  if (platform_name == "rand") return sim::RandLeon3Config();
  if (platform_name == "det") return sim::DetLeon3Config();
  if (platform_name == "rand-op") return sim::RandLeon3OperationConfig();
  std::fprintf(stderr, "spta_cli: unknown platform '%s'\n",
               platform_name.c_str());
  *ok = false;
  return {};
}

/// The fault plan requested on the command line (disabled by default).
fault::CampaignFaults FaultPlanFromFlags(const Flags& flags) {
  fault::CampaignFaults faults;
  faults.seu.upsets_per_run = flags.GetDouble("seu-rate", 0.0);
  faults.reseed_dropout = flags.GetDouble("reseed-dropout", 0.0);
  faults.fault_seed = static_cast<Seed>(flags.GetInt("fault-seed", 0));
  if (faults.seu.upsets_per_run < 0.0 || faults.reseed_dropout < 0.0 ||
      faults.reseed_dropout > 1.0) {
    std::fprintf(stderr,
                 "spta_cli: need --seu-rate >= 0 and "
                 "0 <= --reseed-dropout <= 1\n");
    std::exit(2);
  }
  return faults;
}

analysis::CheckpointOptions CheckpointFromFlags(const Flags& flags) {
  analysis::CheckpointOptions copts;
  copts.journal_path = flags.GetString("checkpoint");
  copts.resume = flags.GetBool("resume");
  const std::int64_t interval = flags.GetInt("fsync-interval", 1);
  const std::int64_t abort_after = flags.GetInt("abort-after", 0);
  if (interval < 1 || abort_after < 0) {
    std::fprintf(stderr,
                 "spta_cli: need --fsync-interval >= 1 and "
                 "--abort-after >= 0\n");
    std::exit(2);
  }
  copts.fsync_interval = static_cast<std::size_t>(interval);
  copts.abort_after_appends = static_cast<std::size_t>(abort_after);
  return copts;
}

/// Arms the tracer when the command line asks for a trace export. Must run
/// before the campaign so the spans exist to collect.
void MaybeEnableTracer(const Flags& flags) {
  if (!flags.GetString("trace-out").empty()) {
    obs::Tracer::Instance().Enable();
  }
}

/// Writes the observability side-outputs of a finished campaign:
///   --counters-out FILE  per-run µarch counter CSV + FILE.summary.json
///                        campaign aggregate;
///   --trace-out FILE     Chrome/Perfetto trace of the recorded spans.
/// Both go through the atomic write path. Returns 0, or 2 on I/O failure.
int WriteObsOutputs(const Flags& flags,
                    const std::vector<analysis::RunSample>& samples) {
  const std::string counters_out = flags.GetString("counters-out");
  if (!counters_out.empty()) {
    std::ostringstream csv;
    obs::WriteCountersCsvHeader(csv);
    obs::CounterAggregate aggregate;
    for (std::size_t r = 0; r < samples.size(); ++r) {
      const auto c =
          obs::RunCounters::From(r, samples[r].path_id, samples[r].detail);
      obs::WriteCountersCsvRow(csv, c);
      aggregate.Add(c);
    }
    std::string error;
    if (!AtomicWriteFile(counters_out, csv.str(), &error) ||
        !AtomicWriteFile(counters_out + ".summary.json",
                         obs::RenderAggregateJson(aggregate) + "\n",
                         &error)) {
      std::fprintf(stderr, "spta_cli: %s\n", error.c_str());
      return 2;
    }
    std::fprintf(stderr,
                 "spta_cli: wrote %zu counter rows to %s "
                 "(aggregate in %s.summary.json)\n",
                 samples.size(), counters_out.c_str(), counters_out.c_str());
  }
  const std::string trace_out = flags.GetString("trace-out");
  if (!trace_out.empty()) {
    std::string error;
    if (!obs::Tracer::Instance().WriteChromeTraceFile(trace_out, &error)) {
      std::fprintf(stderr, "spta_cli: %s\n", error.c_str());
      return 2;
    }
    const auto stats = obs::Tracer::Instance().GetStats();
    std::fprintf(stderr,
                 "spta_cli: wrote %llu trace events to %s "
                 "(%llu dropped)\n",
                 static_cast<unsigned long long>(stats.recorded),
                 trace_out.c_str(),
                 static_cast<unsigned long long>(stats.dropped));
  }
  return 0;
}

/// Writes the campaign CSV: annotated (digest + fault count) when
/// requested or tainted, plain otherwise; file outputs always go through
/// the atomic tmp+fsync+rename path.
int WriteCampaignOutput(const Flags& flags,
                        const std::vector<analysis::RunSample>& samples,
                        std::uint64_t faults) {
  if (const int rc = WriteObsOutputs(flags, samples); rc != 0) return rc;
  const std::string output = flags.GetString("output");
  const bool annotate = flags.GetBool("annotate") || faults > 0;
  if (output.empty() || output == "-") {
    if (annotate) {
      analysis::WriteSamplesCsvAnnotated(std::cout, samples, faults);
    } else {
      analysis::WriteSamplesCsv(std::cout, samples);
    }
    return 0;
  }
  std::string error;
  bool ok;
  if (annotate) {
    ok = analysis::WriteSamplesCsvFileAtomic(output, samples, faults, &error);
  } else {
    std::ostringstream text;
    analysis::WriteSamplesCsv(text, samples);
    ok = AtomicWriteFile(output, text.str(), &error);
  }
  if (!ok) {
    std::fprintf(stderr, "spta_cli: %s\n", error.c_str());
    return 2;
  }
  std::fprintf(stderr, "spta_cli: wrote %zu samples to %s%s\n",
               samples.size(), output.c_str(),
               faults > 0 ? " (TAINTED)" : "");
  return 0;
}

/// The one campaign call behind `campaign` and `simulate`: builds the
/// plan (jobs, journal, fault window) from the flags, runs `workload` and
/// writes its outputs. Returns the exit code: 0 also for the deliberate
/// --abort-after stop, which leaves the journal behind for a later
/// --resume and writes no CSV; 2 when the campaign is refused or fails.
int RunPlannedCampaign(const Flags& flags, const analysis::Workload& workload,
                       const sim::PlatformConfig& config) {
  analysis::CampaignPlan plan{config, JobsFlag(flags)};
  if (flags.Has("checkpoint")) plan.journal = CheckpointFromFlags(flags);
  plan.faults =
      fault::MakeFaultWindow(FaultPlanFromFlags(flags), workload.master_seed());
  std::fprintf(stderr, "spta_cli: %zu runs on %s (%zu jobs%s%s)...\n",
               workload.runs(), config.name.c_str(), plan.jobs,
               plan.journal ? ", journal " : "",
               plan.journal ? plan.journal->journal_path.c_str() : "");
  const analysis::CampaignResult result = analysis::RunCampaign(workload, plan);
  if (!result.ok()) {
    std::fprintf(stderr, "spta_cli: %s\n", result.error.c_str());
    return 2;
  }
  if (result.resumed_runs > 0 || result.torn_lines > 0) {
    std::fprintf(stderr,
                 "spta_cli: restored %zu runs from journal "
                 "(%zu torn lines dropped)\n",
                 result.resumed_runs, result.torn_lines);
  }
  if (!result.completed) {
    std::fprintf(stderr,
                 "spta_cli: stopped by --abort-after; rerun with "
                 "--checkpoint ... --resume to finish\n");
    return 0;
  }
  if (plan.faults.Active()) {
    std::fprintf(stderr,
                 "spta_cli: fault plan fired: %llu SEU flips, "
                 "%llu reseeds dropped\n",
                 static_cast<unsigned long long>(result.faults_injected),
                 static_cast<unsigned long long>(result.reseeds_dropped));
  }
  return WriteCampaignOutput(flags, result.samples,
                             result.faults_injected + result.reseeds_dropped);
}

/// Loads a record file; exit 2 on any damage.
trace::Trace LoadTraceOrDie(const std::string& path) {
  trace::Trace t;
  std::string error;
  if (!trace::TryLoadTraceFile(path, &t, &error)) {
    std::fprintf(stderr, "spta_cli: %s\n", error.c_str());
    std::exit(2);
  }
  return t;
}

int RunTraceInfo(const std::string& path) {
  const trace::Trace t = LoadTraceOrDie(path);
  std::error_code ec;
  const auto on_disk = std::filesystem::file_size(path, ec);
  std::printf("file:            %s\n", path.c_str());
  std::printf("bytes on disk:   %llu\n",
              static_cast<unsigned long long>(ec ? 0 : on_disk));
  std::printf("records:         %zu\n", t.records.size());
  std::printf("path signature:  %llu\n",
              static_cast<unsigned long long>(t.path_signature));
  return 0;
}

int RunTrace(const Flags& flags) {
  const auto& pos = flags.positional();
  if (pos.empty()) {
    std::fprintf(stderr, "spta_cli: trace needs a subcommand (info)\n");
    return 2;
  }
  const std::string& sub = pos[0];
  if (sub == "info") {
    if (pos.size() != 2) {
      std::fprintf(stderr, "spta_cli: trace info needs <file>\n");
      return 2;
    }
    return RunTraceInfo(pos[1]);
  }
  std::fprintf(stderr, "spta_cli: unknown trace subcommand '%s'\n",
               sub.c_str());
  return 2;
}

/// `trace-view [--merge OUT] FILE...`: summarize Chrome trace JSON
/// exports and optionally splice them into one loadable document. Works
/// on anything the repo's exporters produce — live TRACE replies, client
/// --trace-out files, per-process --trace-dir exports, flight-recorder
/// harvest dumps — because they all share the traceEvents schema.
int RunTraceView(const Flags& flags) {
  const auto& files = flags.positional();
  if (files.empty()) {
    std::fprintf(stderr, "spta_cli: trace-view needs FILE...\n");
    return 2;
  }
  bool any_unreadable = false;
  for (const std::string& path : files) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "spta_cli: cannot open '%s'\n", path.c_str());
      any_unreadable = true;
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string events = obs::ExtractTraceEvents(buffer.str());
    // Every exporter emits exactly one "ph" field per event, so counting
    // the key counts events without a JSON parser.
    std::size_t count = 0;
    for (std::size_t pos = 0;
         (pos = events.find("\"ph\":", pos)) != std::string::npos;
         pos += 5) {
      ++count;
    }
    // Distinct distributed traces: the 16-hex trace_id values the events
    // carry in their args.
    std::set<std::string> trace_ids;
    for (std::size_t pos = 0;
         (pos = events.find("\"trace_id\":\"", pos)) != std::string::npos;) {
      pos += 12;
      if (pos + 16 <= events.size()) trace_ids.insert(events.substr(pos, 16));
    }
    std::printf("%s: %zu events, %zu distributed trace(s)", path.c_str(),
                count, trace_ids.size());
    std::size_t shown = 0;
    for (const std::string& id : trace_ids) {
      std::printf("%s%s", shown == 0 ? " [" : " ", id.c_str());
      if (++shown == 4) break;
    }
    if (shown > 0) {
      std::printf("%s]", trace_ids.size() > shown ? " ..." : "");
    }
    std::printf("\n");
  }
  const std::string merge_out = flags.GetString("merge");
  if (!merge_out.empty()) {
    std::size_t merged = 0;
    std::string error;
    if (!obs::MergeChromeTraceFiles(files, merge_out, &merged, &error)) {
      std::fprintf(stderr, "spta_cli: %s\n", error.c_str());
      return 2;
    }
    std::fprintf(stderr, "spta_cli: merged %zu/%zu files into %s\n", merged,
                 files.size(), merge_out.c_str());
  }
  return any_unreadable ? 2 : 0;
}

int RunCampaign(const Flags& flags) {
  bool platform_ok = false;
  const sim::PlatformConfig config = PlatformFromFlags(flags, &platform_ok);
  if (!platform_ok) return 2;
  MaybeEnableTracer(flags);

  analysis::CampaignConfig cc;
  cc.runs = static_cast<std::size_t>(flags.GetInt("runs", 1000));
  cc.master_seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 20170327));
  cc.distinct_scenarios =
      static_cast<std::size_t>(flags.GetInt("scenarios", 0));
  const apps::TvcaApp app;
  return RunPlannedCampaign(flags, analysis::Workload(app, cc), config);
}

int RunAnalyze(const Flags& flags) {
  analysis::CsvMeta meta;
  const auto obs = LoadSamples(flags, &meta);
  mbpta::MbptaOptions opts;
  opts.block_size =
      static_cast<std::size_t>(flags.GetInt("block-size", 0));
  opts.iid.alpha = flags.GetDouble("alpha", 0.05);
  opts.iid.ljung_box_lags =
      static_cast<std::size_t>(flags.GetInt("lags", 20));
  opts.min_blocks = static_cast<std::size_t>(flags.GetInt("min-blocks", 30));

  const auto guarded = analysis::AnalyzeObservationsGuarded(
      obs, opts, analysis::ProvenanceFromMeta(meta));
  if (!guarded.result.has_value()) {
    // Unfit before any statistics ran: tainted, digest mismatch, too few
    // samples. Reject with the typed diagnosis — never fit anyway.
    std::fprintf(stderr, "spta_cli: analysis rejected (%s): %s\n",
                 analysis::DiagnosisCodeName(guarded.diagnosis.code),
                 guarded.diagnosis.message.c_str());
    return 2;
  }
  if (meta.digest.has_value()) {
    std::printf("sample integrity: digest verified over %zu rows\n",
                obs.size());
  }
  const auto& result = *guarded.result;
  std::cout << mbpta::RenderReport(result, "spta_cli analysis");

  const auto times = Times(obs);
  if (flags.GetBool("histogram")) {
    const Histogram h = Histogram::FromSample(times, 20);
    std::printf("execution-time histogram:\n%s", h.Ascii(48).c_str());
  }

  const auto coverage = mbpta::EstimatePathCoverage(obs);
  std::printf(
      "path coverage: %zu paths in %zu runs; Good-Turing unseen-path "
      "probability %.2e\n",
      coverage.observed_paths, coverage.runs, coverage.missing_mass);

  if (flags.GetBool("per-path")) {
    mbpta::PerPathOptions ppo;
    ppo.mbpta = opts;
    ppo.min_samples_per_path = static_cast<std::size_t>(
        flags.GetInt("min-path-samples", 100));
    const auto per_path = mbpta::AnalyzePerPath(obs, ppo);
    std::cout << mbpta::RenderReport(per_path);
  }
  return result.usable ? 0 : 1;
}

int RunConvergence(const Flags& flags) {
  analysis::CsvMeta meta;
  const auto obs = LoadSamples(flags, &meta);
  if (meta.Tainted()) {
    std::fprintf(stderr,
                 "spta_cli: sample is tainted (%llu faults injected); "
                 "refusing convergence analysis\n",
                 static_cast<unsigned long long>(meta.faults));
    return 2;
  }
  mbpta::ConvergenceOptions opts;
  opts.initial_runs =
      static_cast<std::size_t>(flags.GetInt("initial", 250));
  opts.step_runs = static_cast<std::size_t>(flags.GetInt("step", 250));
  opts.reference_prob = flags.GetDouble("prob", 1e-12);
  opts.rel_tolerance = flags.GetDouble("tol", 0.02);
  const auto times = Times(obs);
  if (times.size() < opts.initial_runs) {
    std::fprintf(stderr,
                 "spta_cli: sample of %zu smaller than --initial %zu\n",
                 times.size(), opts.initial_runs);
    return 2;
  }
  const auto conv = mbpta::CheckConvergence(times, opts);
  for (const auto& pt : conv.points) {
    std::printf("n=%6zu  pWCET=%.0f  delta=%.4f\n", pt.runs, pt.pwcet,
                pt.rel_delta);
  }
  std::printf("converged: %s (at %zu runs)\n",
              conv.converged ? "yes" : "no", conv.runs_required);
  return conv.converged ? 0 : 1;
}

int RunRecord(const Flags& flags) {
  const std::string path = flags.GetString("trace");
  if (path.empty()) {
    std::fprintf(stderr, "spta_cli: record needs --trace FILE\n");
    return 2;
  }
  const apps::TvcaApp app;
  const auto frame = app.BuildFrame(
      static_cast<std::uint64_t>(flags.GetInt("scenario", 1)));
  trace::SaveTraceFile(path, frame.trace);
  std::fprintf(stderr, "spta_cli: wrote %zu records (path %u) to %s\n",
               frame.trace.records.size(), frame.path_id, path.c_str());
  return 0;
}

int RunSimulate(const Flags& flags) {
  const std::string path = flags.GetString("trace");
  if (path.empty()) {
    std::fprintf(stderr, "spta_cli: simulate needs --trace FILE\n");
    return 2;
  }
  bool platform_ok = false;
  const sim::PlatformConfig config = PlatformFromFlags(flags, &platform_ok);
  if (!platform_ok) return 2;
  MaybeEnableTracer(flags);
  const trace::Trace t = LoadTraceOrDie(path);
  const auto runs = static_cast<std::size_t>(flags.GetInt("runs", 1000));
  const auto seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 20170327));
  return RunPlannedCampaign(flags, analysis::Workload(t, runs, seed), config);
}

/// One subcommand: its name, the flag part of its usage line, the flags
/// it reads and its entry point.
struct Command {
  const char* name;
  const char* usage;
  std::vector<std::string> flags;
  int (*run)(const Flags&);
};

/// The flags of the campaign runner, which campaign and simulate share,
/// plus the subcommand's own `extra` flags.
std::vector<std::string> RunnerFlags(std::initializer_list<const char*> extra) {
  std::vector<std::string> flags = {
      "platform",       "runs",        "seed",     "jobs",
      "output",         "annotate",    "checkpoint", "resume",
      "fsync-interval", "abort-after", "seu-rate", "reseed-dropout",
      "fault-seed",     "trace-out",   "counters-out"};
  flags.insert(flags.end(), extra.begin(), extra.end());
  return flags;
}

const std::vector<Command>& Commands() {
  static const std::vector<Command> commands = {
      {"campaign",
       "--platform rand|det|rand-op --runs N [--seed S] [--scenarios K] "
       "[--jobs J] [--output FILE]\n"
       "              [--checkpoint FILE [--resume] [--fsync-interval N] "
       "[--abort-after N]] [--seu-rate R] [--reseed-dropout P]\n"
       "              [--fault-seed S] [--annotate] [--trace-out FILE] "
       "[--counters-out FILE]",
       RunnerFlags({"scenarios"}), RunCampaign},
      {"analyze",
       "[--input FILE] [--block-size B] [--lags L] [--alpha A] "
       "[--min-blocks M] [--per-path] [--min-path-samples M] [--histogram]",
       {"input", "block-size", "lags", "alpha", "min-blocks", "per-path",
        "min-path-samples", "histogram"},
       RunAnalyze},
      {"convergence",
       "[--input FILE] [--initial N] [--step N] [--prob P] [--tol T]",
       {"input", "initial", "step", "prob", "tol"},
       RunConvergence},
      {"record", "--trace FILE [--scenario S]", {"trace", "scenario"},
       RunRecord},
      {"simulate",
       "--trace FILE --platform rand|det|rand-op --runs N [--seed S] "
       "[--jobs J] [--output FILE]\n"
       "              [--checkpoint FILE [--resume] [--fsync-interval N] "
       "[--abort-after N]] [--seu-rate R] [--reseed-dropout P]\n"
       "              [--fault-seed S] [--annotate] [--trace-out FILE] "
       "[--counters-out FILE]",
       RunnerFlags({"trace"}), RunSimulate},
      {"trace", "info <file>", {}, RunTrace},
      {"trace-view",
       "[--merge OUT] FILE...   (Chrome trace JSON summary / fleet-wide "
       "merge)",
       {"merge"},
       RunTraceView},
  };
  return commands;
}

void PrintUsageLine(const char* prefix, const Command& command) {
  std::fprintf(stderr, "%s%-11s %s\n", prefix, command.name, command.usage);
}

int Usage() {
  std::fprintf(stderr,
               "usage: spta_cli "
               "<campaign|analyze|convergence|record|simulate|trace|"
               "trace-view> [flags]\n");
  for (const Command& command : Commands()) PrintUsageLine("  ", command);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Flags flags(argc - 1, argv + 1);
  for (const Command& known : Commands()) {
    if (command != known.name) continue;
    const auto unknown = flags.UnknownFlags(known.flags);
    if (!unknown.empty()) {
      std::fprintf(stderr, "spta_cli: unknown flag --%s\n",
                   unknown.front().c_str());
      PrintUsageLine("usage: spta_cli ", known);
      return 2;
    }
    return known.run(flags);
  }
  std::fprintf(stderr, "spta_cli: unknown command '%s'\n", command.c_str());
  return Usage();
}
