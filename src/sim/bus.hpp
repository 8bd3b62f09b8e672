// Shared processor bus (AMBA AHB style).
//
// All DL1/IL1 misses and write-through stores of every core travel over one
// shared bus to the memory controller (paper Figure 1). The bus serves one
// transaction at a time; requests arriving while it is busy wait (that wait
// is the inter-core interference an MBPTA multicore analysis must bound).
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "sim/config.hpp"

namespace spta::sim {

struct BusStats {
  std::uint64_t transactions = 0;
  Cycles busy_cycles = 0;
  Cycles wait_cycles = 0;  ///< Total cycles requests spent queued.
};

class Bus {
 public:
  explicit Bus(const BusConfig& config);

  /// Requests the bus at `ready_time` for `duration` cycles on behalf of
  /// `core`. Returns the cycle the transaction starts (>= ready_time).
  /// Callers must issue requests in non-decreasing ready_time order per
  /// core; cross-core ordering is handled by the caller's event loop.
  Cycles Acquire(CoreId core, Cycles ready_time, Cycles duration);

  /// First cycle at which the bus is free.
  Cycles free_at() const { return free_at_; }

  /// Clears the busy horizon and statistics (between measurement runs).
  void Reset();

  const BusConfig& config() const { return config_; }
  const BusStats& stats() const { return stats_; }

 private:
  BusConfig config_;
  Cycles free_at_ = 0;
  BusStats stats_;
};

}  // namespace spta::sim
