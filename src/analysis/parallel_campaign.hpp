// Multi-threaded measurement campaigns with a bit-identity guarantee.
//
// The parallel runners fan the N independent simulation runs of a campaign
// out across a fixed-size worker pool. Determinism contract: every worker
// owns ONE arena (WorkerArenas: a reusable sim::Platform and a frame
// scratch, reused for every run that worker claims), and each run derives
// its scenario and platform-PRNG seeds purely from (campaign master seed,
// run index) via the helpers in campaign.hpp; each result is written into
// a pre-sized vector at its run index (no locks, no appends on the hot
// path). The resulting sample vector is therefore BIT-IDENTICAL to the
// serial runner's and invariant to the job count and to scheduling order,
// while the campaign's steady state performs zero allocation.
//
// This leans on two audited properties (see parallel_campaign_test.cpp):
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
#include <memory>
#include <vector>

#include "analysis/campaign.hpp"
#include "apps/tvca.hpp"
#include "sim/config.hpp"
#include "trace/record.hpp"

namespace spta::analysis {

/// The per-worker arenas of a pool-run campaign: for each worker, one
/// reusable sim::Platform and one apps::FrameScratch side by side. Every
/// pool runner (parallel, checkpointed, faulted) takes its
/// platform and frame buffers from here. The platform is built on the
/// worker's first run; the scratch holds no memory until the worker
/// builds its first frame, so a fixed-suite campaign pays nothing for it.
/// Slot w is touched only by pool worker w, so no locks are needed.
class WorkerArenas {
 public:
  WorkerArenas(const sim::PlatformConfig& config, std::size_t workers);

  /// The calling pool worker's platform. Aborts off the pool.
  sim::Platform& Platform();
  /// The calling pool worker's frame scratch. Aborts off the pool.
  apps::FrameScratch& Frame();

 private:
  // Cache-line aligned so workers never write to a shared line.
  struct alignas(64) Slot {
    std::unique_ptr<sim::Platform> platform;
    apps::FrameScratch frame;
  };
  Slot& Current();

  const sim::PlatformConfig& config_;
  std::vector<Slot> slots_;
};

/// Default worker count: the hardware concurrency (>= 1).
std::size_t DefaultJobs();

/// Parallel equivalent of RunTvcaCampaign. `jobs` = worker threads
/// (0 = DefaultJobs()); any value yields the same samples. When the
/// campaign uses a fixed scenario suite (distinct_scenarios > 0) the
/// frames are built once up front and shared read-only by the workers;
/// fresh-input campaigns build each frame inside the owning run.
std::vector<RunSample> RunTvcaCampaignParallel(
    const sim::PlatformConfig& platform_config, const apps::TvcaApp& app,
    const CampaignConfig& config, std::size_t jobs = 0);

/// Parallel equivalent of RunFixedTraceCampaign (same seed derivation,
/// same samples, any job count).
std::vector<RunSample> RunFixedTraceCampaignParallel(
    const sim::PlatformConfig& platform_config, const trace::Trace& t,
    std::size_t runs, std::uint64_t master_seed, std::size_t jobs = 0);

}  // namespace spta::analysis
