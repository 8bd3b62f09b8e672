#include "fault/campaign.hpp"

#include <atomic>
#include <functional>

#include "analysis/parallel_campaign.hpp"
#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "fault/plan.hpp"
#include "obs/trace.hpp"
#include "sim/platform.hpp"

namespace spta::fault {
namespace {

/// True when run `r`'s reseed write is dropped. Run 0 never drops: its
/// seed is the value the stale register holds.
bool ReseedDropped(const FaultCampaignConfig& config, std::size_t r) {
  if (r == 0 || config.reseed_dropout <= 0.0) return false;
  return Roll(config.EffectiveFaultSeed(), "reseed", r)
      .Chance(config.reseed_dropout);
}

/// The fault-injection window of run `r`: SEU flips after the reset
/// protocol, counted into `flips`; null when the plan has no SEUs.
std::function<void(sim::Platform&)> SeuHook(const FaultCampaignConfig& config,
                                            std::size_t r,
                                            std::atomic<std::uint64_t>& flips) {
  if (!config.seu.Enabled()) return {};
  return [&config, r, &flips](sim::Platform& p) {
    const SeuReport rep =
        InjectSeus(p, config.seu, config.EffectiveFaultSeed(), r);
    flips.fetch_add(rep.flips, std::memory_order_relaxed);
  };
}

}  // namespace

Seed FaultedTvcaRunSeed(const FaultCampaignConfig& config, std::size_t r,
                        bool* dropped) {
  const bool d = ReseedDropped(config, r);
  if (dropped != nullptr) *dropped = d;
  return analysis::TvcaRunSeed(config.base, d ? 0 : r);
}

Seed FaultedFixedTraceRunSeed(const FaultCampaignConfig& config, std::size_t r,
                              bool* dropped) {
  const bool d = ReseedDropped(config, r);
  if (dropped != nullptr) *dropped = d;
  return analysis::FixedTraceRunSeed(config.base.master_seed, d ? 0 : r);
}

FaultCampaignResult RunTvcaCampaignWithFaults(
    const sim::PlatformConfig& platform_config, const apps::TvcaApp& app,
    const FaultCampaignConfig& config, std::size_t jobs) {
  SPTA_REQUIRE(config.base.runs >= 1);
  FaultCampaignResult result;
  result.samples.resize(config.base.runs);
  std::atomic<std::uint64_t> flips{0};
  std::atomic<std::uint64_t> drops{0};
  const analysis::TvcaFrames frames(app, config.base);
  ThreadPool pool(jobs);
  analysis::WorkerArenas arenas(platform_config, pool.size());
  ParallelFor(pool, config.base.runs, [&](std::size_t r) {
    SPTA_OBS_SPAN_ARG("campaign", "run", "run", r);
    bool dropped = false;
    const Seed run_seed = FaultedTvcaRunSeed(config, r, &dropped);
    if (dropped) drops.fetch_add(1, std::memory_order_relaxed);
    const analysis::FrameView frame = frames.ForRun(r, arenas.Frame());
    result.samples[r] =
        analysis::Measure(arenas.Platform(), frame.segments, frame.path_id,
                          run_seed, SeuHook(config, r, flips));
  });
  result.faults_injected = flips.load();
  result.reseeds_dropped = drops.load();
  return result;
}

FaultCampaignResult RunFixedTraceCampaignWithFaults(
    const sim::PlatformConfig& platform_config, const trace::Trace& t,
    const FaultCampaignConfig& config, std::size_t jobs) {
  SPTA_REQUIRE(config.base.runs >= 1);
  FaultCampaignResult result;
  result.samples.resize(config.base.runs);
  std::atomic<std::uint64_t> flips{0};
  std::atomic<std::uint64_t> drops{0};
  ThreadPool pool(jobs);
  analysis::WorkerArenas arenas(platform_config, pool.size());
  const trace::Segment whole{t.records, nullptr};
  ParallelFor(pool, config.base.runs, [&](std::size_t r) {
    SPTA_OBS_SPAN_ARG("campaign", "run", "run", r);
    bool dropped = false;
    const Seed run_seed = FaultedFixedTraceRunSeed(config, r, &dropped);
    if (dropped) drops.fetch_add(1, std::memory_order_relaxed);
    result.samples[r] = analysis::Measure(
        arenas.Platform(), {&whole, 1},
        static_cast<std::uint32_t>(t.path_signature), run_seed,
        SeuHook(config, r, flips));
  });
  result.faults_injected = flips.load();
  result.reseeds_dropped = drops.load();
  return result;
}

}  // namespace spta::fault
