// Degraded-PRNG models: what a failing hardware randomizer looks like.
//
// The MBPTA argument leans on the platform PRNG being statistically sound
// (the paper's generator is IEC-61508 SIL-3 qualified). This injector
// models the qualified generator going bad in the field: output bits stuck
// at 0/1 (a latched flip-flop), reduced effective entropy (part of the
// LFSR/CASR state frozen), and — at the campaign level, see
// fault::CampaignFaults::reseed_dropout — the per-run reseed write
// being dropped so consecutive runs share a randomization.
//
// Detection point: the FIPS-style bitstream battery in prng/self_test.hpp
// (monobit/poker/runs). A platform bring-up that runs PassesAllBitTests on
// the degraded stream rejects it; campaigns executed anyway produce
// clustered/duplicated times that trip the i.i.d. gate downstream.
#pragma once

#include <cstdint>

#include "prng/hw_prng.hpp"

namespace spta::fault {

struct PrngDegradeConfig {
  /// Output bits forced to 1 (stuck-at-one upsets in the output latch).
  std::uint32_t stuck_one_mask = 0;
  /// Output bits forced to 0. Applied after stuck_one_mask.
  std::uint32_t stuck_zero_mask = 0;
  /// Effective entropy: only the low `entropy_bits` of each word vary,
  /// the rest read as 0. 32 = healthy.
  unsigned entropy_bits = 32;

  bool Degraded() const {
    return stuck_one_mask != 0 || stuck_zero_mask != 0 || entropy_bits < 32;
  }
};

/// HwPrng with the configured output degradation applied to every word.
/// Satisfies std::uniform_random_bit_generator, so it can stand anywhere
/// the healthy generator does (including prng::PassesAllBitTests).
class DegradedHwPrng {
 public:
  using result_type = std::uint32_t;

  DegradedHwPrng(std::uint64_t seed, const PrngDegradeConfig& config)
      : inner_(seed),
        keep_mask_((config.entropy_bits >= 32
                        ? 0xffffffffu
                        : ((1u << config.entropy_bits) - 1u)) &
                   ~config.stuck_zero_mask),
        or_mask_(config.stuck_one_mask & ~config.stuck_zero_mask) {}

  std::uint32_t Next() { return (inner_.Next() & keep_mask_) | or_mask_; }

  result_type operator()() { return Next(); }
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return 0xffffffffu; }

 private:
  prng::HwPrng inner_;
  std::uint32_t keep_mask_;
  std::uint32_t or_mask_;
};

/// Runs the FIPS-style battery (monobit, poker, runs) over `n_words`
/// outputs of a degraded generator. Returns true when the degradation is
/// caught — i.e. at least one test fails. A healthy config returns false.
bool DegradationDetected(std::uint64_t seed, const PrngDegradeConfig& config,
                         std::size_t n_words = 4096);

}  // namespace spta::fault
