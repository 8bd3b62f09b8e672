// Lane-invariant trace preprocessing for the lockstep batch kernel.
//
// A measurement run's timing splits cleanly into two parts:
//
//  * LANE-INVARIANT: base pipeline latencies, FPU latencies (fixed or
//    value-dependent — both are functions of the record alone), load-use
//    stalls, branch penalties, and the instruction-fetch hit/miss outcome
//    of records whose pc stays within the previous record's cache line and
//    page: such a record is a GUARANTEED MRU hit in every lane,
//    independent of seed (the rule in sim/fetch_rule.hpp, which
//    sim::Core's retire loop applies too). None of this depends on the
//    run seed.
//
//  * LANE-VARIANT: the remaining ITLB/IL1 outcomes (page or line changed),
//    every DTLB/DL1 access (the data side's MRU slot is NOT statically
//    derivable — a store miss does not update it), the memory-path timing
//    of misses, and the store buffer.
//
// PrepareTrace folds everything lane-invariant into a compact event stream
// once per trace; the batch kernel then replays only the lane-variant work
// per seed. Runs of fetch-only records with guaranteed MRU hits collapse
// into a single kBulkFetch event whose per-lane application (bump access
// and clock counters, restamp the MRU slot, set its ref bit) is
// observationally identical to executing the records one by one.
//
// The decomposition depends on the platform's timing parameters (pipeline
// latencies, FPU mode, IL1 line size, ITLB page size); a PreparedTrace
// carries a digest of them and BatchPlatform refuses a mismatched one.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sim/config.hpp"
#include "sim/fpu.hpp"
#include "trace/record.hpp"

namespace spta::sim::batch {

/// One interpreter step of the batch kernel.
struct BatchEvent {
  enum class Kind : std::uint8_t {
    kBulkFetch,  ///< `count` fetch-only records, all guaranteed MRU hits.
    kFetch,      ///< One fetch-only record with a lane-variant fetch lookup.
    kLoad,       ///< One load record (fetch + DTLB + DL1 allocate-on-miss).
    kStore,      ///< One store record (fetch + DTLB + DL1 no-allocate + SB).
  };
  Kind kind = Kind::kBulkFetch;
  /// Lane-variant fetch lookups (pc changed page/line since the previous
  /// record). False = guaranteed MRU hit, applied in bulk.
  bool itlb_full = false;
  bool il1_full = false;
  std::uint32_t count = 1;  ///< Records covered (> 1 only for kBulkFetch).
  /// Lane-invariant execute cycles of the covered records: base op
  /// latencies + load-use stalls + branch penalties + FPU latency. Applied
  /// after the fetch lookups and before the data-side accesses, exactly
  /// where Core::RetireRecord charges them.
  Cycles cycles = 0;
  Address pc = 0;        ///< Fetch address (unused by kBulkFetch).
  Address mem_addr = 0;  ///< Data address (kLoad/kStore only).
};

/// A trace lowered to batch events under one platform timing configuration.
struct PreparedTrace {
  std::vector<BatchEvent> events;
  std::uint64_t instructions = 0;
  /// FPU statistics of one run — lane-invariant, so computed once here.
  FpuStats fpu;
  std::uint64_t path_signature = 0;
  /// Digest of the timing parameters the events were computed under.
  std::uint64_t timing_digest = 0;
};

/// Digest of the PlatformConfig parameters that PrepareTrace bakes into the
/// event stream (pipeline/FPU timing, IL1 line size, ITLB page size).
std::uint64_t TimingDigest(const PlatformConfig& config);

/// Lowers `t` for batched execution under `config`'s timing parameters.
PreparedTrace PrepareTrace(const trace::Trace& t,
                           const PlatformConfig& config);

}  // namespace spta::sim::batch
