#include "sim/platform.hpp"

#include <limits>

#include "common/assert.hpp"
#include "common/hash.hpp"

namespace spta::sim {

Platform::Platform(const PlatformConfig& config, Seed master_seed)
    : config_(config),
      memory_(config.bus, config.dram, config.l2,
              DeriveSeed(master_seed, "memory")) {
  config_.Validate();
  cores_.reserve(config_.cores);
  for (CoreId c = 0; c < config_.cores; ++c) {
    cores_.emplace_back(config_, c, &memory_,
                        DeriveSeed(master_seed, c));
  }
}

void Platform::ResetAll(Seed run_seed) {
  memory_.Reset(run_seed);
  for (CoreId c = 0; c < config_.cores; ++c) {
    cores_[c].Reseed(DeriveSeed(run_seed, c));
  }
}

RunResult Platform::Run(const trace::Trace& t, Seed run_seed) {
  ResetAll(run_seed);
  return cores_[0].Run(t);
}

RunResult Platform::RunWithHook(
    const trace::Trace& t, Seed run_seed,
    const std::function<void(Platform&)>& after_reset) {
  const trace::Segment whole{t.records, nullptr};
  return RunWithHook(std::span<const trace::Segment>(&whole, 1), run_seed,
                     after_reset);
}

RunResult Platform::RunWithHook(
    std::span<const trace::Segment> segments, Seed run_seed,
    const std::function<void(Platform&)>& after_reset) {
  ResetAll(run_seed);
  if (after_reset) after_reset(*this);
  return cores_[0].Run(segments);
}

std::vector<RunResult> Platform::RunConcurrent(
    std::span<const trace::Trace* const> per_core, Seed run_seed) {
  SPTA_REQUIRE_MSG(per_core.size() == cores_.size(),
                   "expected " << cores_.size() << " trace slots, got "
                               << per_core.size());
  ResetAll(run_seed);
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    if (per_core[c] != nullptr) cores_[c].AttachTrace(per_core[c]);
  }
  // Interleave in local-timestamp order so shared-resource requests reach
  // the bus approximately in global time order.
  for (;;) {
    Core* next = nullptr;
    for (auto& core : cores_) {
      if (!core.HasWork()) continue;
      if (next == nullptr || core.now() < next->now()) next = &core;
    }
    if (next == nullptr) break;
    next->Step();
  }
  std::vector<RunResult> results(cores_.size());
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    if (per_core[c] != nullptr) results[c] = cores_[c].Finish();
  }
  return results;
}

}  // namespace spta::sim
