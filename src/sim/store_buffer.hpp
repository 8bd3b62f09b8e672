// Store buffer between the core and the write-through bus path.
//
// LEON3's DL1 is write-through no-write-allocate: every store becomes a bus
// write. The store buffer decouples the pipeline from bus latency; the core
// only stalls when the buffer is full. Drains are FIFO and serialized.
//
// Fast path: Push() is a template over the issue callable (no std::function
// type erasure — the bus call inlines into the core's retire loop) and the
// in-flight FIFO is a fixed ring buffer sized at construction, so the
// steady state performs zero allocation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "sim/config.hpp"

namespace spta::sim {

struct StoreBufferStats {
  std::uint64_t stores = 0;
  std::uint64_t full_stalls = 0;
  Cycles stall_cycles = 0;
  /// Maximum in-flight occupancy observed (src/obs sizing signal: how close
  /// the workload drives the buffer to its depth).
  std::uint64_t high_water = 0;
};

class StoreBuffer {
 public:
  explicit StoreBuffer(const StoreBufferConfig& config)
      : config_(config), ring_(config.depth) {
    SPTA_REQUIRE(config.depth >= 1);
  }

  /// Accounts a store issued at core time `now`. `issue` schedules the bus
  /// write: it receives the earliest cycle the write may start (FIFO after
  /// the previous store) and returns its completion time. Returns the new
  /// core time, which exceeds `now` only if the buffer was full.
  template <typename Issue>
  Cycles Push(Cycles now, Issue&& issue) {
    ++stats_.stores;
    // Retire entries that completed by `now`.
    while (count_ > 0 && ring_[head_] <= now) PopFront();
    // Full: stall until the oldest entry completes.
    if (count_ >= config_.depth) {
      const Cycles wait_until = ring_[head_];
      SPTA_CHECK(wait_until > now);
      stats_.stall_cycles += wait_until - now;
      ++stats_.full_stalls;
      now = wait_until;
      PopFront();
    }
    // FIFO drain: this store may start only after the previous one
    // completed.
    const Cycles ready = std::max(now, last_completion_);
    const Cycles completion = issue(ready);
    SPTA_CHECK(completion >= ready);
    last_completion_ = completion;
    PushBack(completion);
    if (count_ > stats_.high_water) stats_.high_water = count_;
    return now;
  }

  /// Core time after waiting for every buffered store to complete (used at
  /// run end so measured times include the full drain).
  Cycles DrainAll(Cycles now);

  /// Empties the buffer and clears statistics (between runs).
  void Reset();

  std::size_t in_flight() const { return count_; }
  const StoreBufferStats& stats() const { return stats_; }

 private:
  void PopFront() {
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    --count_;
  }
  void PushBack(Cycles completion) {
    std::size_t tail = head_ + count_;
    if (tail >= ring_.size()) tail -= ring_.size();
    ring_[tail] = completion;
    ++count_;
  }

  StoreBufferConfig config_;
  /// Fixed-capacity FIFO of in-flight completion times; `config_.depth`
  /// slots suffice because Push() pops before it pushes when full.
  std::vector<Cycles> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  Cycles last_completion_ = 0;
  StoreBufferStats stats_;
};

}  // namespace spta::sim
