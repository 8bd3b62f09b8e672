// Shared memory path: bus + optional unified L2 + DRAM controller.
//
// One instance is shared by all cores of the platform; it converts L1 miss
// and write-through store events into completion times, serializing them on
// the bus, filtering them through the (optional, LEON4-style) shared L2 and
// applying DRAM row-buffer + refresh timing.
#pragma once

#include <optional>

#include "common/types.hpp"
#include "sim/bus.hpp"
#include "sim/cache.hpp"
#include "sim/config.hpp"
#include "sim/dram.hpp"

namespace spta::sim {

class MemorySystem {
 public:
  MemorySystem(const BusConfig& bus_config, const DramConfig& dram_config);
  MemorySystem(const BusConfig& bus_config, const DramConfig& dram_config,
               const L2Config& l2_config, Seed seed);

  /// A cache-line refill requested by `core`, ready at `ready_time`.
  /// The bus is held for the L2 lookup (and on an L2 miss the DRAM access)
  /// plus the line transfer. Returns the completion time.
  Cycles LineFill(CoreId core, Address addr, Cycles ready_time);

  /// A write-through store (single word). Returns the completion time; the
  /// requesting core does not wait for it unless its store buffer is full.
  Cycles Store(CoreId core, Address addr, Cycles ready_time);

  /// Clears bus, L2 and DRAM state + statistics (between measurement
  /// runs); `run_seed` re-randomizes the L2 when it uses random policies.
  void Reset(Seed run_seed = 0);

  const Bus& bus() const { return bus_; }
  const Dram& dram() const { return dram_; }
  /// Null when the platform has no L2.
  const Cache* l2() const { return l2_ ? &*l2_ : nullptr; }
  /// Mutable L2 for the fault-injection subsystem (src/fault); null when
  /// the platform has no L2. Off the hot path.
  Cache* MutableL2() { return l2_ ? &*l2_ : nullptr; }

 private:
  Bus bus_;
  Dram dram_;
  L2Config l2_config_;
  std::optional<Cache> l2_;
};

}  // namespace spta::sim
