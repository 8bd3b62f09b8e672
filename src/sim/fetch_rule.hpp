// The fetch-side guaranteed-MRU-hit rule.
//
// Every retired record accesses the ITLB and then the IL1 on its own pc,
// and both structures allocate on a miss, so after any record the MRU slot
// of each fetch structure holds that record's page and line. A record
// whose pc stays in the previous record's page (line) is therefore a
// guaranteed MRU hit in the ITLB (IL1), whatever the seed, the placement
// and the replacement policy. Nothing else touches the fetch structures
// during a run (the fault window closes before the first record), so the
// rule holds for the whole record stream.
//
// sim::Core's retire loop applies it: it defers such hits and applies
// each run of them as one Cache::MruHits / Tlb::MruHits update.
#pragma once

#include <bit>
#include <cstdint>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "sim/config.hpp"

namespace spta::sim {

class FetchRule {
 public:
  /// Which fetch structures the next record is guaranteed to hit on.
  struct Repeat {
    bool page = false;  ///< Same ITLB page as the previous fetch.
    bool line = false;  ///< Same IL1 line as the previous fetch.
  };

  explicit FetchRule(const PlatformConfig& config)
      : line_shift_(static_cast<std::uint32_t>(
            std::countr_zero(config.il1.line_bytes))),
        page_shift_(static_cast<std::uint32_t>(
            std::countr_zero(config.itlb.page_bytes))) {
    SPTA_REQUIRE(std::has_single_bit(config.il1.line_bytes));
    SPTA_REQUIRE(std::has_single_bit(config.itlb.page_bytes));
    // Shifts >= 1 keep the all-ones "no previous fetch" sentinel out of
    // reach of a real line or page number.
    SPTA_REQUIRE(line_shift_ >= 1 && page_shift_ >= 1);
  }

  /// Classifies the fetch of `pc` against the previous fetch and makes it
  /// the previous fetch. The first fetch after Reset repeats nothing.
  Repeat Next(Address pc) {
    const std::uint64_t line = pc >> line_shift_;
    const std::uint64_t page = pc >> page_shift_;
    const Repeat r{page == page_, line == line_};
    line_ = line;
    page_ = page;
    return r;
  }

  /// Forgets the previous fetch (the fetch structures were flushed).
  void Reset() {
    line_ = kNone;
    page_ = kNone;
  }

 private:
  static constexpr std::uint64_t kNone = ~0ULL;

  std::uint32_t line_shift_;
  std::uint32_t page_shift_;
  std::uint64_t line_ = kNone;
  std::uint64_t page_ = kNone;
};

}  // namespace spta::sim
