// The assembled multicore platform and the per-run measurement protocol.
//
// Platform owns the cores and the shared memory system and reproduces the
// paper's measurement protocol in simulation: for every run, caches and
// TLBs are flushed, all state is reset and (on the randomized platform) a
// fresh PRNG seed is installed — "we flush caches, reset the FPGA and
// reload the executable across executions ... and set a new seed for each
// experiment".
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "sim/config.hpp"
#include "sim/core.hpp"
#include "sim/memory_system.hpp"
#include "trace/interpreter.hpp"
#include "trace/record.hpp"

namespace spta::sim {

class Platform {
 public:
  /// Builds the platform; `master_seed` only seeds initial state (each run
  /// passes its own seed).
  Platform(const PlatformConfig& config, Seed master_seed);

  /// One measurement run of `t` on core 0 with everything else idle.
  /// Performs the full per-run reset protocol with `run_seed`.
  RunResult Run(const trace::Trace& t, Seed run_seed);

  /// One measurement run with a workload on every core given a trace per
  /// core (nullptr = idle core). Cores share the bus and DRAM; execution is
  /// interleaved in timestamp order so interference is modeled. Returns one
  /// result per core (default-constructed for idle cores).
  std::vector<RunResult> RunConcurrent(
      std::span<const trace::Trace* const> per_core, Seed run_seed);

  /// One measurement run like Run(), but invokes `after_reset` between the
  /// per-run reset protocol and execution. This is the fault-injection
  /// window: state corrupted here models an upset that strikes while the
  /// task runs, after the protocol's flush/reseed. Passing a null hook is
  /// exactly Run().
  RunResult RunWithHook(const trace::Trace& t, Seed run_seed,
                        const std::function<void(Platform&)>& after_reset);

  /// As above for a frame given as an ordered segment list, retired back
  /// to back as one record stream (Core::Run).
  RunResult RunWithHook(std::span<const trace::Segment> segments,
                        Seed run_seed,
                        const std::function<void(Platform&)>& after_reset);

  const PlatformConfig& config() const { return config_; }
  const MemorySystem& memory() const { return memory_; }
  /// Mutable core access for the fault-injection subsystem (src/fault).
  Core& core(CoreId id) { return cores_.at(id); }
  /// Mutable memory-path access for the fault-injection subsystem.
  MemorySystem& MutableMemory() { return memory_; }

 private:
  void ResetAll(Seed run_seed);

  PlatformConfig config_;
  MemorySystem memory_;
  std::vector<Core> cores_;
};

}  // namespace spta::sim
