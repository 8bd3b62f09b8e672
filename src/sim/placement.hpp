// The cache set-index (placement) functions of sim::Cache.
//
// Placement is the randomized-cache behavior the paper's argument rests
// on; it is one inline helper on the cache's per-access path. Semantics
// are frozen by the reference-model differentials
// (tests/sim_equivalence_test.cpp).
#pragma once

#include <cstdint>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "common/types.hpp"
#include "sim/config.hpp"

namespace spta::sim {

/// Set index of `line` under `placement` for a cache with sets =
/// index_mask + 1 (power of two) and set_shift = log2(sets). `seed` drives
/// the randomized policies and is ignored by kModulo.
inline std::uint32_t PlacementSetIndex(Placement placement,
                                       std::uint64_t line,
                                       std::uint32_t index_mask,
                                       std::uint32_t set_shift, Seed seed) {
  switch (placement) {
    case Placement::kModulo:
      return static_cast<std::uint32_t>(line) & index_mask;
    case Placement::kRandomModulo: {
      // Random modulo (DAC 2016): rotate the conventional index by a
      // per-(tag, seed) random amount. Lines sharing a tag keep distinct
      // sets (the map is a permutation within each tag group), so unit
      // stride never self-conflicts — but the placement of each tag group
      // is random per seed.
      const std::uint64_t index = line & index_mask;
      const std::uint64_t tag = line >> set_shift;
      const std::uint64_t h = Mix64(tag ^ seed);
      return static_cast<std::uint32_t>((index + h) & index_mask);
    }
    case Placement::kHashRandom:
      // Hash-based random placement (DATE 2013): the whole line number is
      // hashed, so even consecutive lines can collide for some seeds.
      return static_cast<std::uint32_t>(Mix64(line ^ seed)) & index_mask;
  }
  SPTA_CHECK_MSG(false, "unreachable placement policy");
  return 0;
}

}  // namespace spta::sim
