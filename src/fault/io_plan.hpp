// Seeded syscall-level I/O fault plan for the service layer.
//
// Generates service::IoFault decisions — short reads/writes, injected
// EINTR/EAGAIN storms, slow-peer stalls, mid-frame disconnects — as a
// pure function of (campaign_seed, "io", syscall_ordinal), so a failing
// service interaction is replayable from the seed alone. The plan's Hook()
// is handed to a service::Client or to a fleet's io_fault_hook_factory as
// the service::IoFaultHook that GuardedIo consults; the daemon converts
// resulting connection failures into per-session ERR + metrics, never
// process death.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/types.hpp"
#include "service/fd_stream.hpp"

namespace spta::fault {

struct IoFaultConfig {
  /// Per-syscall probabilities; evaluated in this order, first hit wins.
  double eintr_rate = 0.0;       ///< Injected EINTR (retried away).
  double eagain_rate = 0.0;      ///< Injected EAGAIN (bounded retries).
  double short_io_rate = 0.0;    ///< Cap the byte count (short read/write).
  double disconnect_rate = 0.0;  ///< Peer vanishes mid-frame (terminal).
  /// Stall before the syscall proceeds, in milliseconds, with probability
  /// stall_rate (models a slow peer; exercises deadlines, not errors).
  double stall_rate = 0.0;
  unsigned stall_ms = 0;

  bool Enabled() const {
    return eintr_rate > 0.0 || eagain_rate > 0.0 || short_io_rate > 0.0 ||
           disconnect_rate > 0.0 || stall_rate > 0.0;
  }
};

/// One step of the fleet-level chaos schedule (tests/fleet_chaos_test).
enum class FleetChaosAction {
  kNone = 0,
  kKillChild,   ///< SIGKILL a child process (crash injection).
  kWedgeChild,  ///< SIGSTOP a child: alive but unresponsive (watchdog bait).
  kDiskFull,    ///< Drive the persistent cache into (simulated) ENOSPC.
};

struct FleetChaosConfig {
  /// Per-step probabilities; evaluated in this order, first hit wins.
  double kill_rate = 0.0;
  double wedge_rate = 0.0;
  double disk_full_rate = 0.0;

  bool Enabled() const {
    return kill_rate > 0.0 || wedge_rate > 0.0 || disk_full_rate > 0.0;
  }
};

/// Seeded process-level chaos: where IoFaultPlan perturbs one connection's
/// syscalls, this decides which CHILD of a fleet gets killed, wedged, or
/// starved of disk at each step of a soak. Decisions are a pure function
/// of (campaign_seed, "fleet", ordinal), so a failing soak replays from
/// the seed alone.
class FleetChaosPlan {
 public:
  struct Decision {
    FleetChaosAction action = FleetChaosAction::kNone;
    std::size_t target = 0;  ///< Child index for kill/wedge; else unused.
  };

  FleetChaosPlan(const FleetChaosConfig& config, Seed campaign_seed)
      : config_(config), campaign_seed_(campaign_seed) {}

  /// The decision for the next soak step (advances the ordinal).
  /// `targets` is how many children are eligible; 0 forces kNone.
  Decision Next(std::size_t targets);

  std::uint64_t faults_fired() const {
    return faults_fired_.load(std::memory_order_relaxed);
  }

 private:
  FleetChaosConfig config_;
  Seed campaign_seed_;
  std::atomic<std::uint64_t> ordinal_{0};
  std::atomic<std::uint64_t> faults_fired_{0};
};

/// A deterministic per-connection fault schedule: create one IoFaultPlan
/// per connection; the syscall ordinal is the per-plan counter. Thread-safe
/// within a connection (the reader thread and response-flushing workers
/// may consult it concurrently; ordinal assignment is atomic, so each
/// decision is used exactly once even though their interleaving follows
/// the thread schedule). faults_fired() reports how many syscalls received
/// a non-clean decision — the daemon feeds this into the `faults_injected`
/// metrics counter.
class IoFaultPlan {
 public:
  IoFaultPlan(const IoFaultConfig& config, Seed campaign_seed,
              std::uint64_t stream_index)
      : config_(config),
        campaign_seed_(campaign_seed),
        stream_index_(stream_index) {}

  /// The decision for the next syscall (advances the ordinal).
  service::IoFault Next(service::IoOp op, std::size_t requested);

  /// Adapts the plan to the IoFaultHook signature. The plan must outlive
  /// the connection that holds the hook.
  service::IoFaultHook Hook() {
    return [this](service::IoOp op, std::size_t n) { return Next(op, n); };
  }

  std::uint64_t faults_fired() const {
    return faults_fired_.load(std::memory_order_relaxed);
  }

 private:
  IoFaultConfig config_;
  Seed campaign_seed_;
  std::uint64_t stream_index_;
  std::atomic<std::uint64_t> ordinal_{0};
  /// Atomic only so concurrent readers (metrics scrape) see a sane value;
  /// the writer is always the stream's own thread.
  std::atomic<std::uint64_t> faults_fired_{0};
};

}  // namespace spta::fault
