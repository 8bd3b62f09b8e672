// Measurement campaigns executed under an active fault plan.
//
// Same seed-derivation contract as the healthy runners (analysis::
// campaign.hpp): the platform seed, the scenario seed AND the fault
// schedule of run r are pure functions of the configuration, so the
// faulted campaign is bit-replayable in any execution order and for any
// --jobs. The runners mirror analysis::Run*CampaignParallel (the shared
// per-worker analysis::WorkerArenas, pre-sized result vector) with two
// additions:
//   - SEU flips applied in the post-reset injection window of every run
//     (sim::Platform::RunWithHook),
//   - reseed dropout: with probability `reseed_dropout` per run, the
//     per-run seed write is "dropped" and the run executes under run 0's
//     randomization — the PRNG-degradation failure where the platform
//     silently stops re-randomizing between runs.
// The returned taint counters feed the campaign-integrity accounting
// (analysis::Diagnosis): a campaign with faults_injected > 0 must never
// be served as a clean pWCET.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/campaign.hpp"
#include "apps/tvca.hpp"
#include "fault/seu.hpp"
#include "sim/config.hpp"
#include "trace/record.hpp"

namespace spta::fault {

struct FaultCampaignConfig {
  analysis::CampaignConfig base;
  SeuConfig seu;
  /// Per-run probability that the reseed write is dropped (the run reuses
  /// run 0's platform seed). 0 = healthy protocol.
  double reseed_dropout = 0.0;
  /// Campaign-level fault seed; 0 = derive from base.master_seed so one
  /// master seed fully specifies the experiment.
  Seed fault_seed = 0;

  Seed EffectiveFaultSeed() const {
    return fault_seed != 0 ? fault_seed : base.master_seed;
  }
};

struct FaultCampaignResult {
  std::vector<analysis::RunSample> samples;
  /// Total SEU bit flips injected across all runs.
  std::uint64_t faults_injected = 0;
  /// Runs that executed under a stale (dropped) reseed.
  std::uint64_t reseeds_dropped = 0;

  bool Tainted() const { return faults_injected + reseeds_dropped > 0; }
};

/// The seed run `r` actually executes under, after reseed dropout.
/// Pure function of the configuration (replay contract).
Seed FaultedTvcaRunSeed(const FaultCampaignConfig& config, std::size_t r,
                        bool* dropped);
Seed FaultedFixedTraceRunSeed(const FaultCampaignConfig& config, std::size_t r,
                              bool* dropped);

/// TVCA campaign under the fault plan; `jobs` as in the parallel runners.
/// With a disabled plan (no SEU, no dropout) the samples are bit-identical
/// to analysis::RunTvcaCampaignParallel.
FaultCampaignResult RunTvcaCampaignWithFaults(
    const sim::PlatformConfig& platform_config, const apps::TvcaApp& app,
    const FaultCampaignConfig& config, std::size_t jobs);

/// Fixed-trace campaign under the fault plan (config.base.runs runs of
/// `t`, seeds from config.base.master_seed).
FaultCampaignResult RunFixedTraceCampaignWithFaults(
    const sim::PlatformConfig& platform_config, const trace::Trace& t,
    const FaultCampaignConfig& config, std::size_t jobs);

}  // namespace spta::fault
