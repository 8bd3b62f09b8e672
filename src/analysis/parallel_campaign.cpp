#include "analysis/parallel_campaign.hpp"

#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "obs/trace.hpp"
#include "sim/platform.hpp"

namespace spta::analysis {

WorkerArenas::WorkerArenas(const sim::PlatformConfig& config,
                           std::size_t workers)
    : config_(config), slots_(workers) {}

WorkerArenas::Slot& WorkerArenas::Current() {
  const std::size_t w = ThreadPool::CurrentWorkerIndex();
  SPTA_CHECK_MSG(w != ThreadPool::kNotAWorker && w < slots_.size(),
                 "campaign body must run on a pool worker");
  return slots_[w];
}

sim::Platform& WorkerArenas::Platform() {
  Slot& slot = Current();
  if (slot.platform == nullptr) {
    slot.platform = std::make_unique<sim::Platform>(config_, /*master_seed=*/0);
  }
  return *slot.platform;
}

apps::FrameScratch& WorkerArenas::Frame() { return Current().frame; }

std::size_t DefaultJobs() { return ThreadPool::DefaultThreadCount(); }

std::vector<RunSample> RunTvcaCampaignParallel(
    const sim::PlatformConfig& platform_config, const apps::TvcaApp& app,
    const CampaignConfig& config, std::size_t jobs) {
  SPTA_REQUIRE(config.runs >= 1);
  std::vector<RunSample> samples(config.runs);
  const TvcaFrames frames(app, config);
  ThreadPool pool(jobs);
  WorkerArenas arenas(platform_config, pool.size());
  SPTA_OBS_SPAN_ARG("campaign", "tvca_campaign_parallel", "runs",
                    config.runs);
  ParallelFor(pool, config.runs, [&](std::size_t r) {
    SPTA_OBS_SPAN_ARG("campaign", "run", "run", r);
    const FrameView frame = frames.ForRun(r, arenas.Frame());
    samples[r] = Measure(arenas.Platform(), frame.segments, frame.path_id,
                         TvcaRunSeed(config, r));
  });
  return samples;
}

std::vector<RunSample> RunFixedTraceCampaignParallel(
    const sim::PlatformConfig& platform_config, const trace::Trace& t,
    std::size_t runs, std::uint64_t master_seed, std::size_t jobs) {
  SPTA_REQUIRE(runs >= 1);
  std::vector<RunSample> samples(runs);
  ThreadPool pool(jobs);
  WorkerArenas arenas(platform_config, pool.size());
  SPTA_OBS_SPAN_ARG("campaign", "fixed_trace_campaign_parallel", "runs",
                    runs);
  const trace::Segment whole{t.records, nullptr};
  ParallelFor(pool, runs, [&](std::size_t r) {
    SPTA_OBS_SPAN_ARG("campaign", "run", "run", r);
    samples[r] = Measure(arenas.Platform(), {&whole, 1},
                         static_cast<std::uint32_t>(t.path_signature),
                         FixedTraceRunSeed(master_seed, r));
  });
  return samples;
}

}  // namespace spta::analysis
