#include "sim/cache.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"

namespace spta::sim {

Cache::Cache(const CacheConfig& config, Seed seed)
    : config_(config),
      sets_(config.num_sets()),
      set_shift_(static_cast<std::uint32_t>(std::countr_zero(sets_))),
      line_shift_(static_cast<std::uint32_t>(
          std::countr_zero(config.line_bytes))),
      index_mask_(sets_ - 1),
      placement_seed_(seed),
      replacement_rng_(prng::HwPrng(DeriveSeed(seed, "cache-repl"))),
      slots_(static_cast<std::size_t>(sets_) * config.ways),
      tags_(slots_ + 1, kInvalidTag),
      stamps_(slots_ + 1, 0),
      ref_bits_(sets_ + 1, 0),
      // One hint per slot, up to 1024: enough for a working set the size
      // of an L1, small enough to stay in the host's L1 beside the tags.
      // Every hint starts at the sentinel slot.
      hints_(std::min<std::size_t>(std::bit_ceil(slots_), 1024),
             sets_ << kWayBits),
      hint_mask_(hints_.size() - 1) {
  SPTA_REQUIRE(std::has_single_bit(sets_));
  // The NRU reference mask packs one bit per way into a 64-bit word (64
  // ways also covers the fully associative configurations tests use), and
  // a hint packs the set above the way.
  SPTA_REQUIRE(config.ways >= 1 && config.ways <= 64);
  SPTA_REQUIRE(sets_ < (1u << (32 - kWayBits)));
  RememberMru(slots_, sets_, 0);
}

void Cache::ForgetShortcuts() {
  std::fill(hints_.begin(), hints_.end(), sets_ << kWayBits);
  RememberMru(slots_, sets_, 0);
}

bool Cache::ScanOrFill(std::uint64_t line, bool allocate_on_miss) {
  const std::uint32_t set = SetIndexForLine(line);
  const std::size_t base = static_cast<std::size_t>(set) * config_.ways;
  const std::uint64_t* tags = &tags_[base];
  // Branch-free hit scan for the first matching way (only a corrupted
  // tag array holds a line twice); the invalid sentinel never equals a
  // real line number. The conditional select compiles to cmov/SIMD.
  std::uint32_t hit_way = config_.ways;
  for (std::uint32_t w = config_.ways; w-- > 0;) {
    hit_way = (tags[w] == line) ? w : hit_way;
  }
  if (hit_way != config_.ways) {
    stamps_[base + hit_way] = access_clock_;
    ref_bits_[set] |= 1ULL << hit_way;
    Remember(line, base + hit_way, set, hit_way);
    return true;
  }
  ++stats_.misses;
  if (allocate_on_miss) {
    const std::uint32_t w = Victim(set);
    tags_[base + w] = line;
    stamps_[base + w] = access_clock_;
    ref_bits_[set] |= 1ULL << w;
    Remember(line, base + w, set, w);
  }
  return false;
}

std::uint32_t Cache::Victim(std::uint32_t set) {
  const std::size_t base = static_cast<std::size_t>(set) * config_.ways;
  // Prefer an invalid way.
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    if (tags_[base + w] == kInvalidTag) return w;
  }
  switch (config_.replacement) {
    case Replacement::kLru: {
      std::uint32_t victim = 0;
      for (std::uint32_t w = 1; w < config_.ways; ++w) {
        if (stamps_[base + w] < stamps_[base + victim]) victim = w;
      }
      return victim;
    }
    case Replacement::kRandom:
      return replacement_rng_.UniformBelow(config_.ways);
    case Replacement::kNru: {
      // Evict the first non-referenced way; if all referenced, clear the
      // bits (aging) and evict way 0.
      const std::uint32_t first_clear =
          static_cast<std::uint32_t>(std::countr_one(ref_bits_[set]));
      if (first_clear < config_.ways) return first_clear;
      ref_bits_[set] = 0;
      return 0;
    }
  }
  SPTA_CHECK_MSG(false, "unreachable replacement policy");
  return 0;
}

void Cache::Flush() {
  // Every tag becomes invalid, so the shortcuts need no reset: no line
  // matches a slot again until a fill records it.
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  std::fill(stamps_.begin(), stamps_.end(), 0);
  std::fill(ref_bits_.begin(), ref_bits_.end(), 0u);
  access_clock_ = 0;
}

void Cache::Reseed(Seed seed) {
  placement_seed_ = seed;
  replacement_rng_ =
      prng::BlockDraws<prng::HwPrng>(prng::HwPrng(DeriveSeed(seed,
                                                             "cache-repl")));
  Flush();
}

}  // namespace spta::sim
