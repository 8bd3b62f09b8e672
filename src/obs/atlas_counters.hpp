// Process-wide atlas (src/atlas) counters.
//
// The trace pack/unpack paths (`spta_cli trace pack|unpack`) bump these
// global atomics; spta_serve exports them on METRICS_PROM, so container
// traffic is visible without threading stats through every call site.
// Deliberately separate from RunCounters, whose per-run CSV schema is
// frozen by golden tests.
#pragma once

#include <cstdint>

namespace spta::obs {

struct AtlasCountersSnapshot {
  std::uint64_t traces_packed = 0;     ///< Atlas containers written.
  std::uint64_t traces_unpacked = 0;   ///< Atlas containers decoded.
};

/// Counts one atlas container written / decoded.
void CountAtlasPack();
void CountAtlasUnpack();

/// Consistent snapshot of all counters.
AtlasCountersSnapshot AtlasCounters();

/// Zeroes everything (test isolation only).
void ResetAtlasCountersForTest();

}  // namespace spta::obs
