#include "analysis/campaign.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "obs/trace.hpp"

namespace spta::analysis {

Seed TvcaScenarioSeed(const CampaignConfig& config, std::size_t run_index) {
  const std::uint64_t scenario_index =
      config.distinct_scenarios == 0 ? run_index
                                     : run_index % config.distinct_scenarios;
  return DeriveSeed(config.master_seed, scenario_index);
}

Seed TvcaRunSeed(const CampaignConfig& config, std::size_t run_index) {
  return DeriveSeed(DeriveSeed(config.master_seed, "run"), run_index);
}

Seed FixedTraceRunSeed(std::uint64_t master_seed, std::size_t run_index) {
  return DeriveSeed(master_seed, run_index);
}

RunSample Measure(sim::Platform& platform,
                  std::span<const trace::Segment> segments,
                  std::uint32_t path_id, Seed run_seed,
                  const std::function<void(sim::Platform&)>& after_reset) {
  SPTA_OBS_SPAN("sim", "simulate");
  RunSample s;
  s.detail = platform.RunWithHook(segments, run_seed, after_reset);
  s.cycles = static_cast<double>(s.detail.cycles);
  s.path_id = path_id;
  return s;
}

TvcaFrames::TvcaFrames(const apps::TvcaApp& app, const CampaignConfig& config)
    : app_(app), config_(config) {
  // Runs r and r + distinct_scenarios share a frame, so a campaign
  // shorter than its suite reaches only its first `runs` scenarios.
  const std::size_t distinct =
      std::min(config.distinct_scenarios, config.runs);
  suite_.reserve(distinct);
  suite_segments_.reserve(distinct);
  for (std::size_t i = 0; i < distinct; ++i) {
    suite_.push_back(app.BuildFrame(TvcaScenarioSeed(config, i)));
    suite_segments_.push_back({suite_.back().trace.records, nullptr});
  }
}

FrameView TvcaFrames::ForRun(std::size_t run_index,
                             apps::FrameScratch& scratch) const {
  if (!suite_.empty()) {
    const std::size_t i = run_index % config_.distinct_scenarios;
    return {{&suite_segments_[i], 1}, suite_[i].path_id};
  }
  const apps::FrameSpans& frame =
      app_.BuildFrame(TvcaScenarioSeed(config_, run_index), scratch);
  return {frame.segments, frame.path_id};
}

std::vector<RunSample> RunTvcaCampaign(sim::Platform& platform,
                                       const apps::TvcaApp& app,
                                       const CampaignConfig& config) {
  SPTA_REQUIRE(config.runs >= 1);
  SPTA_OBS_SPAN_ARG("campaign", "tvca_campaign", "runs", config.runs);
  std::vector<RunSample> samples;
  samples.reserve(config.runs);
  const TvcaFrames frames(app, config);
  apps::FrameScratch scratch;
  for (std::size_t r = 0; r < config.runs; ++r) {
    SPTA_OBS_SPAN_ARG("campaign", "run", "run", r);
    const FrameView frame = frames.ForRun(r, scratch);
    samples.push_back(
        Measure(platform, frame.segments, frame.path_id,
                TvcaRunSeed(config, r)));
  }
  return samples;
}

std::vector<RunSample> RunFixedTraceCampaign(sim::Platform& platform,
                                             const trace::Trace& t,
                                             std::size_t runs,
                                             std::uint64_t master_seed) {
  SPTA_REQUIRE(runs >= 1);
  SPTA_OBS_SPAN_ARG("campaign", "fixed_trace_campaign", "runs", runs);
  std::vector<RunSample> samples;
  samples.reserve(runs);
  const trace::Segment whole{t.records, nullptr};
  for (std::size_t r = 0; r < runs; ++r) {
    SPTA_OBS_SPAN_ARG("campaign", "run", "run", r);
    samples.push_back(Measure(platform, {&whole, 1},
                              static_cast<std::uint32_t>(t.path_signature),
                              FixedTraceRunSeed(master_seed, r)));
  }
  return samples;
}

std::vector<double> ExtractTimes(std::span<const RunSample> samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const auto& s : samples) out.push_back(s.cycles);
  return out;
}

std::vector<mbpta::PathObservation> ToPathObservations(
    std::span<const RunSample> samples) {
  std::vector<mbpta::PathObservation> out;
  out.reserve(samples.size());
  for (const auto& s : samples) {
    out.push_back({s.path_id, s.cycles});
  }
  return out;
}

}  // namespace spta::analysis
