#include "sim/reference_model.hpp"

#include <bit>

#include "common/assert.hpp"
#include "common/hash.hpp"

namespace spta::sim {

// ---------------------------------------------------------------------------
// ReferenceCache — the seed sim/cache.cpp implementation, unmodified.

ReferenceCache::ReferenceCache(const CacheConfig& config, Seed seed)
    : config_(config),
      sets_(config.num_sets()),
      line_shift_(static_cast<std::uint32_t>(
          std::countr_zero(config.line_bytes))),
      index_mask_(sets_ - 1),
      placement_seed_(seed),
      replacement_rng_(DeriveSeed(seed, "cache-repl")),
      lines_(static_cast<std::size_t>(sets_) * config.ways) {
  SPTA_REQUIRE(std::has_single_bit(sets_));
}

std::uint64_t ReferenceCache::LineNumber(Address addr) const {
  return addr >> line_shift_;
}

std::uint32_t ReferenceCache::SetIndexFor(Address addr) const {
  const std::uint64_t line = LineNumber(addr);
  switch (config_.placement) {
    case Placement::kModulo:
      return static_cast<std::uint32_t>(line) & index_mask_;
    case Placement::kRandomModulo: {
      const std::uint64_t index = line & index_mask_;
      const std::uint64_t tag = line >> std::countr_zero(sets_);
      const std::uint64_t h = Mix64(tag ^ placement_seed_);
      return static_cast<std::uint32_t>((index + h) & index_mask_);
    }
    case Placement::kHashRandom: {
      return static_cast<std::uint32_t>(Mix64(line ^ placement_seed_)) &
             index_mask_;
    }
  }
  SPTA_CHECK_MSG(false, "unreachable placement policy");
  return 0;
}

std::uint32_t ReferenceCache::Victim(std::uint32_t set) {
  Line* base = &lines_[static_cast<std::size_t>(set) * config_.ways];
  // Prefer an invalid way.
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    if (!base[w].valid) return w;
  }
  switch (config_.replacement) {
    case Replacement::kLru: {
      std::uint32_t victim = 0;
      for (std::uint32_t w = 1; w < config_.ways; ++w) {
        if (base[w].lru_stamp < base[victim].lru_stamp) victim = w;
      }
      return victim;
    }
    case Replacement::kRandom:
      return replacement_rng_.UniformBelow(config_.ways);
    case Replacement::kNru: {
      for (std::uint32_t w = 0; w < config_.ways; ++w) {
        if (!base[w].referenced) return w;
      }
      for (std::uint32_t w = 0; w < config_.ways; ++w) {
        base[w].referenced = false;
      }
      return 0;
    }
  }
  SPTA_CHECK_MSG(false, "unreachable replacement policy");
  return 0;
}

bool ReferenceCache::Access(Address addr, bool allocate_on_miss) {
  ++stats_.accesses;
  ++access_clock_;
  const std::uint64_t line = LineNumber(addr);
  const std::uint32_t set = SetIndexFor(addr);
  Line* base = &lines_[static_cast<std::size_t>(set) * config_.ways];
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    if (base[w].valid && base[w].tag == line) {
      base[w].lru_stamp = access_clock_;
      base[w].referenced = true;
      return true;
    }
  }
  ++stats_.misses;
  if (allocate_on_miss) {
    const std::uint32_t w = Victim(set);
    base[w].valid = true;
    base[w].tag = line;
    base[w].lru_stamp = access_clock_;
    base[w].referenced = true;
  }
  return false;
}

void ReferenceCache::CorruptTagBit(std::size_t slot, unsigned bit) {
  Line& l = lines_.at(slot);
  const std::uint64_t word = TagAt(slot) ^ (1ULL << (bit & 63u));
  l.valid = word != ~0ULL;
  l.tag = l.valid ? word : 0;
}

std::uint64_t ReferenceCache::TagAt(std::size_t slot) const {
  const Line& l = lines_.at(slot);
  return l.valid ? l.tag : ~0ULL;
}

void ReferenceCache::Flush() {
  for (auto& l : lines_) l = Line{};
  access_clock_ = 0;
}

void ReferenceCache::Reseed(Seed seed) {
  placement_seed_ = seed;
  replacement_rng_ = prng::HwPrng(DeriveSeed(seed, "cache-repl"));
  Flush();
}

// ---------------------------------------------------------------------------
// ReferenceTlb — the seed sim/tlb.cpp implementation, unmodified.

ReferenceTlb::ReferenceTlb(const TlbConfig& config, Seed seed)
    : config_(config),
      page_shift_(static_cast<std::uint32_t>(
          std::countr_zero(config.page_bytes))),
      replacement_rng_(DeriveSeed(seed, "tlb-repl")),
      entries_(config.entries) {
  SPTA_REQUIRE(std::has_single_bit(config.page_bytes));
}

std::uint32_t ReferenceTlb::Victim() {
  for (std::uint32_t i = 0; i < entries_.size(); ++i) {
    if (!entries_[i].valid) return i;
  }
  switch (config_.replacement) {
    case Replacement::kLru: {
      std::uint32_t victim = 0;
      for (std::uint32_t i = 1; i < entries_.size(); ++i) {
        if (entries_[i].lru_stamp < entries_[victim].lru_stamp) victim = i;
      }
      return victim;
    }
    case Replacement::kRandom:
      return replacement_rng_.UniformBelow(
          static_cast<std::uint32_t>(entries_.size()));
    case Replacement::kNru: {
      for (std::uint32_t i = 0; i < entries_.size(); ++i) {
        if (!entries_[i].referenced) return i;
      }
      for (auto& e : entries_) e.referenced = false;
      return 0;
    }
  }
  SPTA_CHECK_MSG(false, "unreachable replacement policy");
  return 0;
}

bool ReferenceTlb::Access(Address addr) {
  ++stats_.accesses;
  ++access_clock_;
  const std::uint64_t vpn = addr >> page_shift_;
  for (auto& e : entries_) {
    if (e.valid && e.vpn == vpn) {
      e.lru_stamp = access_clock_;
      e.referenced = true;
      return true;
    }
  }
  ++stats_.misses;
  Entry& e = entries_[Victim()];
  e.valid = true;
  e.vpn = vpn;
  e.lru_stamp = access_clock_;
  e.referenced = true;
  return false;
}

void ReferenceTlb::CorruptVpnBit(std::size_t slot, unsigned bit) {
  Entry& e = entries_.at(slot);
  const std::uint64_t word = VpnAt(slot) ^ (1ULL << (bit & 63u));
  e.valid = word != ~0ULL;
  e.vpn = e.valid ? word : 0;
}

std::uint64_t ReferenceTlb::VpnAt(std::size_t slot) const {
  const Entry& e = entries_.at(slot);
  return e.valid ? e.vpn : ~0ULL;
}

void ReferenceTlb::Flush() {
  for (auto& e : entries_) e = Entry{};
  access_clock_ = 0;
}

void ReferenceTlb::Reseed(Seed seed) {
  replacement_rng_ = prng::HwPrng(DeriveSeed(seed, "tlb-repl"));
  Flush();
}

}  // namespace spta::sim
