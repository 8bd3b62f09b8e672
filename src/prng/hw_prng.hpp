// MBPTA-grade hardware-style pseudo-random number generator.
//
// Models the role of the IEC-61508 SIL-3 compliant PRNG the paper's platform
// uses to drive random cache placement and replacement (Agirre et al., DSD
// 2015): the classic LFSR ⊕ CASR construction (Tkacik), where a 43-bit
// maximal-length LFSR and a 37-bit maximal-length hybrid cellular automaton
// are clocked together and the low 32 bits of each are XORed to form the
// output word. The two periods (2^43-1 and 2^37-1) are coprime, giving a
// combined sequence period of their product.
#pragma once

#include <cstdint>

#include "common/hash.hpp"
#include "prng/lfsr.hpp"

namespace spta::prng {

/// Combined LFSR⊕CASR generator with a 32-bit output word.
/// Satisfies std::uniform_random_bit_generator.
class HwPrng {
 public:
  using result_type = std::uint32_t;

  /// Seeds both registers from independent portions of `seed` and warms the
  /// generator up by a fixed number of clocks so that low-entropy seeds
  /// (e.g. small integers) diffuse through the state.
  explicit HwPrng(std::uint64_t seed);

  /// Returns the next 32-bit output word. Inline: one Next() per random
  /// replacement draw makes this the hottest PRNG call in the simulator.
  std::uint32_t Next() {
    const std::uint64_t l = lfsr_.Step();
    const std::uint64_t c = casr_.Step();
    return static_cast<std::uint32_t>(l) ^ static_cast<std::uint32_t>(c);
  }

  result_type operator()() { return Next(); }
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return 0xffffffffu; }

  /// Uniform integer in [0, bound), bound > 0, rejection-based (unbiased).
  std::uint32_t UniformBelow(std::uint32_t bound);

  /// The exact acceptance threshold of UniformBelow's rejection loop:
  /// draws below the largest multiple of `bound` that fits in 2^32 are
  /// accepted, so every residue class is equally likely. Exposed so that
  /// batched front-ends (BlockDraws) can reproduce the rejection sequence
  /// word for word.
  static constexpr std::uint64_t RejectionThreshold(std::uint32_t bound) {
    return (0x1'0000'0000ULL / bound) * bound;
  }

  /// Uniform double in [0, 1).
  double UniformUnit();

  /// Number of warm-up clocks applied at construction.
  static constexpr int kWarmupSteps = 64;

 private:
  Lfsr43 lfsr_;
  Casr37 casr_;
};

}  // namespace spta::prng
