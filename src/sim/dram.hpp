// DRAM controller with per-bank open-row (row-buffer) tracking.
//
// An access to the currently open row of a bank is a CAS-only "row hit";
// any other row pays precharge + activate + CAS. Row-buffer state is the
// last deterministic-but-history-dependent jitter source behind the bus;
// the MBPTA protocol's per-run reset (Flush) puts it in a known state.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sim/config.hpp"

namespace spta::sim {

struct DramStats {
  std::uint64_t accesses = 0;
  std::uint64_t row_hits = 0;
  Cycles refresh_stall_cycles = 0;
};

class Dram {
 public:
  explicit Dram(const DramConfig& config);

  /// Latency of one access to `addr` issued at `now`, updating the bank's
  /// open row. Includes any stall for an in-progress all-bank refresh
  /// (when refresh_interval > 0).
  Cycles AccessLatency(Address addr, Cycles now = 0);

  /// Closes all rows and clears statistics (between measurement runs).
  void Reset();

  /// Bank index of `addr` (exposed for tests).
  std::uint32_t BankOf(Address addr) const;
  /// Row index of `addr` within its bank (exposed for tests).
  std::uint64_t RowOf(Address addr) const;

  const DramConfig& config() const { return config_; }
  const DramStats& stats() const { return stats_; }

 private:
  DramConfig config_;
  std::uint32_t row_shift_;
  std::uint32_t bank_shift_;
  std::vector<std::int64_t> open_row_;  ///< -1 = closed.
  DramStats stats_;
};

}  // namespace spta::sim
