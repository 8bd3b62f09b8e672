// The fault plan of a measurement campaign, as an analysis::FaultWindow.
//
// Same seed-derivation contract as the healthy campaign (analysis::
// campaign.hpp): the platform seed, the scenario seed AND the fault
// schedule of run r are pure functions of the configuration, so the
// faulted campaign is bit-replayable in any execution order and for any
// job count. analysis::RunCampaign runs the window; this file builds it:
//   - SEU flips applied in the post-reset injection window of every run
//     (sim::Platform::RunWithHook), reported back as the run's fault count,
//   - reseed dropout: with probability `reseed_dropout` per run, the
//     per-run seed write is "dropped" and the run executes under run 0's
//     randomization — the PRNG-degradation failure where the platform
//     silently stops re-randomizing between runs.
// The campaign result's taint counters (faults_injected, reseeds_dropped)
// feed the campaign-integrity accounting (analysis::Diagnosis): a campaign
// with faults must never be served as a clean pWCET.
#pragma once

#include <cstdint>

#include "analysis/campaign.hpp"
#include "fault/seu.hpp"

namespace spta::fault {

/// The fault plan of one campaign; the default injects nothing.
struct CampaignFaults {
  SeuConfig seu;
  /// Per-run probability that the reseed write is dropped (the run reuses
  /// run 0's platform seed). 0 = healthy protocol.
  double reseed_dropout = 0.0;
  /// Campaign-level fault seed; 0 = the campaign's master seed, so one
  /// master seed fully specifies the experiment.
  Seed fault_seed = 0;
};

/// The run whose platform seed run `r` executes under, after reseed
/// dropout: 0 when r's reseed write is dropped, else r (run 0 never
/// drops: its seed is the value the stale register holds). Pure function
/// of the configuration (replay contract).
std::size_t ReseedRun(const CampaignFaults& faults, Seed master_seed,
                      std::size_t r);

/// The injection window of `faults` for a campaign seeded from
/// `master_seed`; inactive when the plan is disabled.
analysis::FaultWindow MakeFaultWindow(const CampaignFaults& faults,
                                      Seed master_seed);

}  // namespace spta::fault
