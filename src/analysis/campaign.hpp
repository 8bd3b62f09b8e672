// Measurement campaigns: the glue between workload, platform and analysis.
//
// A campaign reproduces the paper's measurement protocol end to end: for
// each run, draw the workload inputs (a new frame scenario), reset the
// platform (flush caches/TLBs, reset bus/DRAM — "reset the FPGA, reload
// the executable") and, on the randomized platform, install a fresh PRNG
// seed; then execute and record the end-to-end execution time and the
// application path. A fault campaign is the same loop with an injection
// window after the reset.
//
// RunCampaign is the one runner. It fans the runs of a Workload out across
// a fixed-size worker pool. Determinism contract: every worker owns ONE
// arena (a reusable sim::Platform and a frame scratch, reused for every run
// that worker claims), and each run derives its scenario and platform-PRNG
// seeds purely from (campaign master seed, run index); each result is
// written into a pre-sized vector at its run index. The sample vector is
// therefore BIT-IDENTICAL for every job count and scheduling order, and to
// a reference that measures every run on a Platform built for it alone.
//
// This leans on two audited properties (see tests/campaign_test.cpp):
//  * sim::Platform holds no shared or static mutable state, and
//    Platform::Run performs the full per-run reset protocol, so a run's
//    result is a pure function of (platform config, trace, run seed) —
//    independent of the construction-time master seed and of any earlier
//    runs on the same instance (which is what makes arena reuse safe).
//    TvcaApp::BuildFrame(seed, scratch) overwrites every buffer it fills,
//    so a reused scratch yields the same frame as a fresh one.
//  * apps::TvcaApp is immutable after construction (const methods over
//    const members; the programs it decodes on first use are published
//    through std::call_once), so one instance is safely shared across
//    workers.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "apps/tvca.hpp"
#include "mbpta/per_path.hpp"
#include "sim/config.hpp"
#include "sim/platform.hpp"
#include "trace/interpreter.hpp"

namespace spta::analysis {

struct CampaignConfig {
  std::size_t runs = 1000;
  std::uint64_t master_seed = 20170327;  // DATE'17 conference date
  /// When > 0, inputs cycle through this many distinct scenarios (the
  /// analysis-time test-vector suite); 0 means every run draws fresh
  /// inputs (operation-like).
  std::size_t distinct_scenarios = 0;
};

/// One measurement.
struct RunSample {
  double cycles = 0.0;
  std::uint32_t path_id = 0;
  sim::RunResult detail;
};

/// Seed-derivation contract: the inputs (scenario) seed and the platform
/// PRNG seed of run `run_index` are pure functions of the campaign
/// configuration, so any execution order produces the same sample vector.
Seed TvcaScenarioSeed(const CampaignConfig& config, std::size_t run_index);
Seed TvcaRunSeed(const CampaignConfig& config, std::size_t run_index);
/// Per-run platform seed of a fixed-trace campaign.
Seed FixedTraceRunSeed(std::uint64_t master_seed, std::size_t run_index);

/// Campaign identity bound into the journal header (analysis/checkpoint).
struct CheckpointHeader {
  std::uint64_t campaign_seed = 0;
  std::uint64_t runs = 0;
  std::uint64_t distinct_scenarios = 0;
  /// Distinguishes workloads (TVCA vs a specific fixed trace); resuming
  /// under a different workload is refused.
  std::uint64_t workload_digest = 0;
};

/// A campaign frame to measure: its ordered segment list and its
/// application path.
struct FrameView {
  std::span<const trace::Segment> segments;
  std::uint32_t path_id = 0;
};

/// What a campaign measures: the frame and the platform seed of every run.
/// A TVCA workload builds run r's frame as a block-stream segment list
/// into the caller's scratch (app.BuildFrame(TvcaScenarioSeed(config, r),
/// scratch)), so a worker that reuses one scratch allocates no frame
/// memory after its first run. With a scenario suite
/// (distinct_scenarios > 0) runs r and r + distinct_scenarios share a
/// frame: RunCampaign builds the SuiteSize() distinct frames once, on its
/// worker pool, each into a scratch of its own, and measures every run on
/// its scenario's frame. A fixed-trace workload measures one trace under
/// per-run reseeding (isolates platform randomization jitter from input
/// jitter).
class Workload {
 public:
  /// A TVCA campaign: `config.runs` runs seeded from `config.master_seed`.
  Workload(const apps::TvcaApp& app, const CampaignConfig& config);
  /// `runs` measurements of the fixed trace `t`, which must outlive the
  /// workload.
  Workload(const trace::Trace& t, std::size_t runs,
           std::uint64_t master_seed);

  std::size_t runs() const { return config_.runs; }
  std::uint64_t master_seed() const { return config_.master_seed; }

  /// The distinct frames of a TVCA scenario suite: runs i and i + size
  /// measure frame ForRun(i). A campaign shorter than its suite reaches
  /// only its first `runs` scenarios. 0 for fresh inputs and for a fixed
  /// trace.
  std::size_t SuiteSize() const;
  /// Run `run_index`'s frame: the fixed trace as a one-segment list, or
  /// the segment list of the run's TVCA frame built into `scratch` (valid
  /// until the scratch's next frame).
  FrameView ForRun(std::size_t run_index, apps::FrameScratch& scratch) const;
  /// Run `run_index`'s platform seed.
  Seed RunSeed(std::size_t run_index) const;
  /// The campaign identity a journal of this workload carries.
  CheckpointHeader Header() const;
  /// The campaign-level trace span: "tvca_campaign" or
  /// "fixed_trace_campaign".
  const char* SpanName() const;

 private:
  /// Null for a fixed-trace workload.
  const apps::TvcaApp* app_ = nullptr;
  CampaignConfig config_;
  std::uint64_t digest_ = 0;
  /// The fixed trace as one record segment (unused for TVCA).
  trace::Segment fixed_;
  std::uint32_t fixed_path_id_ = 0;
};

/// Options of a journaled campaign (analysis/checkpoint).
struct CheckpointOptions {
  std::string journal_path;
  /// Restore completed runs from an existing journal and continue. With
  /// resume=false an existing journal is overwritten.
  bool resume = false;
  /// fsync after every Nth append (1 = every append, the default).
  std::size_t fsync_interval = 1;
  /// TEST HOOK — simulated crash: stop appending (and measuring) once
  /// this many appends have happened in this execution. 0 = disabled.
  std::size_t abort_after_appends = 0;
};

/// A campaign's fault-injection window (built by src/fault from its fault
/// plan). Both parts are pure functions of the run index, so a faulted
/// campaign replays bit-for-bit on any schedule.
struct FaultWindow {
  /// Injects run r's faults into the platform between the per-run reset
  /// and execution (Platform::RunWithHook) and returns how many it
  /// injected; null injects none.
  std::function<std::uint64_t(sim::Platform&, std::size_t)> after_reset;
  /// The run whose platform seed run r executes under: r on a healthy
  /// platform, an earlier run when r's reseed write is dropped; null
  /// means r.
  std::function<std::size_t(std::size_t)> seed_run;

  bool Active() const { return after_reset || seed_run; }
};

/// How to execute a campaign.
struct CampaignPlan {
  CampaignPlan(sim::PlatformConfig platform_config, std::size_t job_count = 1,
               std::optional<CheckpointOptions> journal_options = {},
               FaultWindow fault_window = {})
      : platform(std::move(platform_config)),
        jobs(job_count),
        journal(std::move(journal_options)),
        faults(std::move(fault_window)) {}

  sim::PlatformConfig platform;
  /// Worker threads (0 = DefaultJobs()); any value yields the same
  /// samples.
  std::size_t jobs = 1;
  /// Journal every completed run; with resume, restore the journalled
  /// runs and measure only the missing ones.
  std::optional<CheckpointOptions> journal;
  /// Fault injection; journals hold clean campaigns only, so a plan with
  /// both is refused.
  FaultWindow faults;
};

struct CampaignResult {
  /// Slot r holds run r's sample (default-constructed for runs an
  /// aborted journaled campaign never measured).
  std::vector<RunSample> samples;
  /// False when the abort hook fired (samples is then incomplete).
  bool completed = false;
  /// Runs restored from the journal instead of re-executed.
  std::size_t resumed_runs = 0;
  std::size_t torn_lines = 0;
  /// Faults the window injected across all runs.
  std::uint64_t faults_injected = 0;
  /// Runs that executed under another run's seed (dropped reseeds).
  std::uint64_t reseeds_dropped = 0;
  /// Non-empty when the campaign was refused or its journal failed.
  std::string error;

  bool ok() const { return error.empty(); }
  bool Tainted() const { return faults_injected + reseeds_dropped > 0; }
};

/// Default worker count: the hardware concurrency (>= 1).
std::size_t DefaultJobs();

/// Executes `workload` as `plan` says. Journaled campaigns create or
/// resume the journal (refusing one whose header names another campaign)
/// and append each sample under one mutex, so the abort hook stops the
/// journal at exactly its count. A plan with a journal and faults is
/// refused with an error and writes no journal.
CampaignResult RunCampaign(const Workload& workload, const CampaignPlan& plan);

/// Extracts the execution-time series (collection order preserved).
std::vector<double> ExtractTimes(std::span<const RunSample> samples);

/// Converts samples to the per-path observation form used by
/// mbpta::AnalyzePerPath.
std::vector<mbpta::PathObservation> ToPathObservations(
    std::span<const RunSample> samples);

}  // namespace spta::analysis
