// Measurement campaigns: the glue between workload, platform and analysis.
//
// A campaign reproduces the paper's measurement protocol end to end: for
// each run, draw the workload inputs (a new frame scenario), reset the
// platform (flush caches/TLBs, reset bus/DRAM — "reset the FPGA, reload
// the executable") and, on the randomized platform, install a fresh PRNG
// seed; then execute and record the end-to-end execution time and the
// application path.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "apps/tvca.hpp"
#include "mbpta/per_path.hpp"
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

/// Seed-derivation contract shared by the serial and parallel runners: the
/// inputs (scenario) seed and the platform PRNG seed of run `run_index` are
/// pure functions of the campaign configuration, so any runner that honors
/// them — in any execution order — produces the same sample vector.
Seed TvcaScenarioSeed(const CampaignConfig& config, std::size_t run_index);
Seed TvcaRunSeed(const CampaignConfig& config, std::size_t run_index);
/// Per-run platform seed of a fixed-trace campaign.
Seed FixedTraceRunSeed(std::uint64_t master_seed, std::size_t run_index);

/// One measurement: runs the frame given as the ordered segment list
/// `segments` on `platform` under `run_seed` inside the `sim/simulate`
/// span.
/// `after_reset` is Platform::RunWithHook's fault-injection window; null
/// means a plain run.
RunSample Measure(sim::Platform& platform,
                  std::span<const trace::Segment> segments,
                  std::uint32_t path_id, Seed run_seed,
                  const std::function<void(sim::Platform&)>& after_reset = {});

/// A campaign frame to measure: its ordered segment list and its
/// application path.
struct FrameView {
  std::span<const trace::Segment> segments;
  std::uint32_t path_id = 0;
};

/// The frames of a TVCA campaign. A fixed scenario suite
/// (distinct_scenarios > 0) is built once, up front, and shared read-only;
/// a fresh-input campaign builds run r's frame into the caller's scratch,
/// so a worker that reuses one scratch allocates no frame memory after
/// its first run. Either way run r measures exactly the records of
/// app.BuildFrame(TvcaScenarioSeed(config, r)).
class TvcaFrames {
 public:
  TvcaFrames(const apps::TvcaApp& app, const CampaignConfig& config);
  // suite_segments_ points into suite_: a copy would view the original.
  TvcaFrames(const TvcaFrames&) = delete;
  TvcaFrames& operator=(const TvcaFrames&) = delete;

  /// Run `run_index`'s frame: a suite entry as a one-segment list, or the
  /// segment list of a frame rebuilt into `scratch`.
  FrameView ForRun(std::size_t run_index, apps::FrameScratch& scratch) const;

  /// The prebuilt suite (one frame per scenario the campaign reaches;
  /// empty for fresh inputs).
  const std::vector<apps::TvcaFrame>& suite() const { return suite_; }

 private:
  const apps::TvcaApp& app_;
  CampaignConfig config_;
  std::vector<apps::TvcaFrame> suite_;
  /// suite_[i]'s records as one segment, so a suite frame is a
  /// one-segment view.
  std::vector<trace::Segment> suite_segments_;
};

/// Executes a TVCA campaign on `platform`, building frames as TvcaFrames
/// does: a fixed suite once, fresh inputs into one reused scratch.
std::vector<RunSample> RunTvcaCampaign(sim::Platform& platform,
                                       const apps::TvcaApp& app,
                                       const CampaignConfig& config);

/// Executes `runs` measurements of one fixed trace under per-run reseeding
/// (isolates platform randomization jitter from input jitter).
std::vector<RunSample> RunFixedTraceCampaign(sim::Platform& platform,
                                             const trace::Trace& t,
                                             std::size_t runs,
                                             std::uint64_t master_seed);

/// Extracts the execution-time series (collection order preserved).
std::vector<double> ExtractTimes(std::span<const RunSample> samples);

/// Converts samples to the per-path observation form used by
/// mbpta::AnalyzePerPath.
std::vector<mbpta::PathObservation> ToPathObservations(
    std::span<const RunSample> samples);

}  // namespace spta::analysis
