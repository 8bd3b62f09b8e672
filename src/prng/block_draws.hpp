// Block-buffered PRNG front-end for the simulation hot path.
//
// Random cache/TLB replacement draws one word per eviction; at campaign
// scale that is millions of tiny generator calls interleaved with cache
// bookkeeping. BlockDraws amortizes them: it clocks the backing engine in
// chunks of kBlockSize words into a flat buffer (a tight, unrollable loop
// over the inline shift-register steps) and serves draws from the buffer.
//
// Equivalence contract (enforced by tests/block_draws_test.cpp): the word
// stream served by Next() is element-for-element identical to calling
// engine.Next() directly — refills merely pre-clock the engine, they never
// reorder, drop or duplicate words — and UniformBelow() replays exactly the
// rejection loop of HwPrng::UniformBelow over that stream. Swapping an
// engine for BlockDraws<Engine> therefore changes no observable behavior,
// for any refill boundary alignment.
#pragma once

#include <array>
#include <cstdint>
#include <utility>

#include "common/assert.hpp"
#include "prng/hw_prng.hpp"

namespace spta::prng {

/// Consumption counters of one BlockDraws stream (src/obs attribution: how
/// much platform entropy a run burned, and how often the modulo-rejection
/// loop retried). Maintained off the per-draw path — refills count once per
/// kBlockSize words, rejections only on the rare retry branch — so the
/// accounting is free at simulation scale.
struct DrawStats {
  std::uint64_t words = 0;       ///< Engine words served to callers.
  std::uint64_t rejections = 0;  ///< UniformBelow retries (word discarded).
};

/// `Engine` needs `std::uint32_t Next()` (HwPrng, Xoshiro128pp, ...).
template <typename Engine>
class BlockDraws {
 public:
  /// Words clocked per refill. 256 words keep the buffer L1-resident while
  /// making the refill loop long enough to pipeline the register steps.
  static constexpr std::size_t kBlockSize = 256;

  explicit BlockDraws(Engine engine) : engine_(std::move(engine)) {}

  /// Next 32-bit word — identical to engine.Next() in sequence.
  std::uint32_t Next() {
    if (pos_ == fill_) Refill();
    return buffer_[pos_++];
  }

  /// Uniform integer in [0, bound), bound > 0 — bit-identical to
  /// HwPrng::UniformBelow over the same word stream (same acceptance
  /// threshold, same rejection order, same modulo).
  std::uint32_t UniformBelow(std::uint32_t bound) {
    SPTA_REQUIRE(bound > 0);
    const std::uint64_t threshold = HwPrng::RejectionThreshold(bound);
    for (;;) {
      const std::uint32_t v = Next();
      if (v < threshold) return v % bound;
      ++rejections_;  // Rare: threshold is >= 2^31 for any bound.
    }
  }

  /// Uniform double in [0, 1) — one word, identical to HwPrng::UniformUnit.
  double UniformUnit() {
    return static_cast<double>(Next()) * 0x1.0p-32;
  }

  /// Words already drawn from the engine but not yet served (test hook for
  /// exercising refill boundaries).
  std::size_t buffered() const { return fill_ - pos_; }

  /// Consumption counters since construction. `words` counts engine words
  /// actually handed to callers (pre-clocked but unserved buffer words are
  /// excluded), `rejections` the UniformBelow retries among them.
  DrawStats stats() const { return {clocked_ - buffered(), rejections_}; }

 private:
  void Refill() {
    for (std::size_t i = 0; i < kBlockSize; ++i) buffer_[i] = engine_.Next();
    fill_ = kBlockSize;
    pos_ = 0;
    // Track clocked words explicitly rather than deriving them as
    // refills * kBlockSize: the derivation silently over-counts the moment
    // any refill clocks fewer than kBlockSize words (a hazard for partial
    // refill strategies), and the journalled `prng.words` of every run
    // depends on `stats().words` being exact at every refill boundary.
    clocked_ += kBlockSize;
  }

  Engine engine_;
  std::array<std::uint32_t, kBlockSize> buffer_;
  std::size_t pos_ = 0;   ///< Next word to serve.
  std::size_t fill_ = 0;  ///< Valid words in the buffer.
  std::uint64_t clocked_ = 0;  ///< Engine words clocked into the buffer.
  std::uint64_t rejections_ = 0;
};

}  // namespace spta::prng
