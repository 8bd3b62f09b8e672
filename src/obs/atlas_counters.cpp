#include "obs/atlas_counters.hpp"

#include <atomic>

namespace spta::obs {
namespace {

std::atomic<std::uint64_t> g_packed{0};
std::atomic<std::uint64_t> g_unpacked{0};

}  // namespace

void CountAtlasPack() { g_packed.fetch_add(1, std::memory_order_relaxed); }

void CountAtlasUnpack() {
  g_unpacked.fetch_add(1, std::memory_order_relaxed);
}

AtlasCountersSnapshot AtlasCounters() {
  AtlasCountersSnapshot s;
  s.traces_packed = g_packed.load(std::memory_order_relaxed);
  s.traces_unpacked = g_unpacked.load(std::memory_order_relaxed);
  return s;
}

void ResetAtlasCountersForTest() {
  g_packed.store(0, std::memory_order_relaxed);
  g_unpacked.store(0, std::memory_order_relaxed);
}

}  // namespace spta::obs
