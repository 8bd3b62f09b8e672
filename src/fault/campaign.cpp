#include "fault/campaign.hpp"

#include "fault/plan.hpp"

namespace spta::fault {
namespace {

Seed EffectiveFaultSeed(const CampaignFaults& faults, Seed master_seed) {
  return faults.fault_seed != 0 ? faults.fault_seed : master_seed;
}

}  // namespace

std::size_t ReseedRun(const CampaignFaults& faults, Seed master_seed,
                      std::size_t r) {
  if (r == 0 || faults.reseed_dropout <= 0.0) return r;
  const bool dropped = Roll(EffectiveFaultSeed(faults, master_seed), "reseed",
                            r)
                           .Chance(faults.reseed_dropout);
  return dropped ? 0 : r;
}

analysis::FaultWindow MakeFaultWindow(const CampaignFaults& faults,
                                      Seed master_seed) {
  analysis::FaultWindow window;
  if (faults.seu.Enabled()) {
    const SeuConfig seu = faults.seu;
    const Seed seed = EffectiveFaultSeed(faults, master_seed);
    window.after_reset = [seu, seed](sim::Platform& p, std::size_t r) {
      return InjectSeus(p, seu, seed, r).flips;
    };
  }
  if (faults.reseed_dropout > 0.0) {
    window.seed_run = [faults, master_seed](std::size_t r) {
      return ReseedRun(faults, master_seed, r);
    };
  }
  return window;
}

}  // namespace spta::fault
