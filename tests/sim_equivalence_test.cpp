// Differential equivalence battery: optimized fast-path cache/TLB vs the
// retained reference implementations (sim/reference_model.hpp).
//
// The fast-path refactor (flat SoA layout, branch-free scans, MRU
// shortcuts, batched replacement PRNG) claims bit-identical observable
// behavior. These tests make that claim falsifiable: both implementations
// consume the same randomized address streams under every placement x
// replacement combination, across geometries from direct-mapped to fully
// associative, with flushes and reseeds interleaved — and must agree on
// every single hit/miss outcome, on the placement function, and on the
// final statistics. A one-draw divergence in PRNG consumption desyncs the
// random-replacement victim sequence and fails the stream comparison
// within a few accesses, so the battery also pins the PRNG protocol.
//
// The PolicyComboGoldens test freezes end-to-end platform cycle counts for
// all nine combos, captured from the pre-refactor tree: even a coordinated
// change to both models cannot slip through silently.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "prng/xoshiro.hpp"
#include "sim/cache.hpp"
#include "sim/config.hpp"
#include "sim/platform.hpp"
#include "sim/reference_model.hpp"
#include "sim/tlb.hpp"
#include "trace/synthetic.hpp"

namespace spta::sim {
namespace {

constexpr Placement kPlacements[] = {Placement::kModulo,
                                     Placement::kRandomModulo,
                                     Placement::kHashRandom};
constexpr Replacement kReplacements[] = {Replacement::kLru,
                                         Replacement::kRandom,
                                         Replacement::kNru};

/// Address stream with the access shapes the simulator actually sees:
/// sequential bursts (code fetch), strided walks (arrays), hot-set reuse
/// and uniform scatter — plus the occasional no-allocate access (store
/// path) encoded in the second member.
struct AccessOp {
  Address addr = 0;
  bool allocate = true;
};

std::vector<AccessOp> MakeStream(std::uint64_t seed, std::size_t count,
                                 std::uint32_t line_bytes) {
  prng::Xoshiro128pp rng(seed);
  std::vector<AccessOp> ops;
  ops.reserve(count);
  Address cursor = 0x40000000;
  std::vector<Address> hot(8);
  for (auto& h : hot) h = 0x40000000 + 4096ULL * rng.UniformBelow(256);
  while (ops.size() < count) {
    switch (rng.UniformBelow(4)) {
      case 0:  // sequential burst
        for (std::uint32_t i = 0; i < 16 && ops.size() < count; ++i) {
          ops.push_back({cursor, true});
          cursor += 4;
        }
        break;
      case 1: {  // strided walk, stride a few lines
        const Address stride = line_bytes * (1 + rng.UniformBelow(5));
        Address a = 0x40000000 + 64ULL * rng.UniformBelow(4096);
        for (std::uint32_t i = 0; i < 8 && ops.size() < count; ++i) {
          ops.push_back({a, rng.UniformBelow(8) != 0});
          a += stride;
        }
        break;
      }
      case 2:  // hot-set reuse
        ops.push_back({hot[rng.UniformBelow(8)], true});
        break;
      default:  // uniform scatter over 1 MiB
        ops.push_back({0x40000000 + 4ULL * rng.UniformBelow(1 << 18),
                       rng.UniformBelow(8) != 0});
        break;
    }
  }
  return ops;
}

void RunCacheDifferential(const CacheConfig& config, Seed seed,
                          std::uint64_t stream_seed) {
  Cache fast(config, seed);
  ReferenceCache reference(config, seed);
  const auto ops = MakeStream(stream_seed, 4000, config.line_bytes);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ASSERT_EQ(reference.SetIndexFor(ops[i].addr),
              fast.SetIndexFor(ops[i].addr))
        << "placement diverged at access " << i;
    const bool ref_hit = reference.Access(ops[i].addr, ops[i].allocate);
    const bool fast_hit = fast.Access(ops[i].addr, ops[i].allocate);
    ASSERT_EQ(ref_hit, fast_hit)
        << "hit/miss diverged at access " << i << " addr " << std::hex
        << ops[i].addr << std::dec << " allocate " << ops[i].allocate;
    // Mid-stream flush and reseed at fixed points: both models must
    // restart from identical (empty, reseeded) state.
    if (i == ops.size() / 3) {
      reference.Flush();
      fast.Flush();
    }
    if (i == 2 * ops.size() / 3) {
      reference.Reseed(seed + 17);
      fast.Reseed(seed + 17);
    }
  }
  EXPECT_EQ(reference.stats().accesses, fast.stats().accesses);
  EXPECT_EQ(reference.stats().misses, fast.stats().misses);
}

TEST(SimEquivalenceTest, CacheAllPolicyCombos) {
  for (const auto placement : kPlacements) {
    for (const auto replacement : kReplacements) {
      CacheConfig config{16 * 1024, 32, 4, placement, replacement};
      for (Seed seed : {Seed{1}, Seed{42}, Seed{0xabcdef}}) {
        RunCacheDifferential(config, seed, seed * 31 + 7);
      }
    }
  }
}

TEST(SimEquivalenceTest, CacheGeometryMatrix) {
  // Direct-mapped through fully associative (64 ways x 1 set exercises
  // the sentinel validity encoding at the ref-bit word boundary).
  const CacheConfig geometries[] = {
      {4 * 1024, 32, 1, Placement::kRandomModulo, Replacement::kRandom},
      {4 * 1024, 16, 2, Placement::kHashRandom, Replacement::kRandom},
      {8 * 1024, 32, 8, Placement::kRandomModulo, Replacement::kNru},
      {64 * 32, 32, 64, Placement::kModulo, Replacement::kRandom},
      {64 * 32, 32, 64, Placement::kModulo, Replacement::kLru},
  };
  for (const auto& config : geometries) {
    RunCacheDifferential(config, 9, 1234);
    RunCacheDifferential(config, 10, 99);
  }
  // Plus a seeded sweep of odd geometries: 16/32/64-byte lines, 1-8 ways
  // and 8-128 sets under random placement x replacement pairs.
  prng::Xoshiro128pp rng(20170327);
  for (int i = 0; i < 24; ++i) {
    const std::uint32_t line_bytes = 16u << rng.UniformBelow(3);
    const std::uint32_t ways = 1u << rng.UniformBelow(4);
    const std::uint32_t sets = 8u << rng.UniformBelow(5);
    const CacheConfig config{line_bytes * ways * sets, line_bytes, ways,
                             kPlacements[rng.UniformBelow(3)],
                             kReplacements[rng.UniformBelow(3)]};
    SCOPED_TRACE(i);
    RunCacheDifferential(config, rng.Next(), rng.Next());
  }
}

TEST(SimEquivalenceTest, CacheMruShortcutThrash) {
  // Adversarial pattern for the MRU shortcut: alternate two lines that
  // map to the same set (eviction repeatedly invalidates the remembered
  // slot) in a direct-mapped cache, interleaved with revisits.
  CacheConfig config{1024, 32, 1, Placement::kModulo, Replacement::kLru};
  Cache fast(config, 3);
  ReferenceCache reference(config, 3);
  const std::uint32_t sets = config.num_sets();
  const Address a = 0x1000;
  const Address b = a + static_cast<Address>(sets) * config.line_bytes;
  const Address c = b + static_cast<Address>(sets) * config.line_bytes;
  const Address pattern[] = {a, b, a, b, c, a, c, b, a, a, b, c};
  for (int round = 0; round < 200; ++round) {
    for (const Address addr : pattern) {
      ASSERT_EQ(reference.Access(addr), fast.Access(addr));
    }
  }
  EXPECT_EQ(reference.stats().misses, fast.stats().misses);
}

void RunTlbDifferential(const TlbConfig& config, Seed seed,
                        std::uint64_t stream_seed) {
  Tlb fast(config, seed);
  ReferenceTlb reference(config, seed);
  // Page-granular stream: locality bursts + scatter over 512 pages so
  // small TLBs thrash and 64-entry ones see reuse.
  prng::Xoshiro128pp rng(stream_seed);
  Address page = 0;
  for (std::size_t i = 0; i < 6000; ++i) {
    if (rng.UniformBelow(4) == 0) page = rng.UniformBelow(512);
    const Address addr = page * config.page_bytes + rng.UniformBelow(4096);
    ASSERT_EQ(reference.Access(addr), fast.Access(addr))
        << "TLB diverged at access " << i;
    if (i == 2000) {
      reference.Flush();
      fast.Flush();
    }
    if (i == 4000) {
      reference.Reseed(seed ^ 0x5555);
      fast.Reseed(seed ^ 0x5555);
    }
  }
  EXPECT_EQ(reference.stats().accesses, fast.stats().accesses);
  EXPECT_EQ(reference.stats().misses, fast.stats().misses);
}

TEST(SimEquivalenceTest, TlbAllReplacementPolicies) {
  for (const auto replacement : kReplacements) {
    for (std::uint32_t entries : {4u, 8u, 16u, 64u}) {
      TlbConfig config;
      config.entries = entries;
      config.replacement = replacement;
      for (Seed seed : {Seed{1}, Seed{2024}}) {
        RunTlbDifferential(config, seed, seed + entries);
      }
    }
  }
}

// MruHits(k) is k Access calls on the MRU line: two caches driven by one
// stream, one taking bulk hits and one taking them access by access, agree
// on every later hit/miss (so on every later victim, which the LRU stamps
// and NRU reference bits decide), on the statistics and on every tag slot.
TEST(SimEquivalenceTest, CacheMruHitsEqualRepeatedAccess) {
  for (const auto placement : kPlacements) {
    for (const auto replacement : kReplacements) {
      SCOPED_TRACE(static_cast<int>(placement) * 3 +
                   static_cast<int>(replacement));
      // Small enough that the stream keeps evicting.
      const CacheConfig config{2 * 1024, 32, 4, placement, replacement};
      Cache bulk(config, 5);
      Cache stepwise(config, 5);
      prng::Xoshiro128pp rng(11);
      const auto ops = MakeStream(99, 6000, config.line_bytes);
      for (std::size_t i = 0; i < ops.size(); ++i) {
        ASSERT_EQ(bulk.Access(ops[i].addr, ops[i].allocate),
                  stepwise.Access(ops[i].addr, ops[i].allocate))
            << "access " << i;
        // An allocating access leaves its line in the MRU slot.
        if (ops[i].allocate && rng.UniformBelow(8) == 0) {
          const std::uint32_t k = 1 + rng.UniformBelow(64);
          bulk.MruHits(k);
          for (std::uint32_t j = 0; j < k; ++j) {
            ASSERT_TRUE(stepwise.Access(ops[i].addr));
          }
        }
      }
      EXPECT_EQ(bulk.stats().accesses, stepwise.stats().accesses);
      EXPECT_EQ(bulk.stats().misses, stepwise.stats().misses);
      EXPECT_EQ(bulk.draw_stats().words, stepwise.draw_stats().words);
      for (std::size_t slot = 0; slot < bulk.TagSlots(); ++slot) {
        ASSERT_EQ(bulk.TagAt(slot), stepwise.TagAt(slot)) << "slot " << slot;
      }
    }
  }
}

TEST(SimEquivalenceTest, TlbMruHitsEqualRepeatedAccess) {
  for (const auto replacement : kReplacements) {
    for (std::uint32_t entries : {4u, 8u, 64u}) {
      SCOPED_TRACE(static_cast<int>(replacement));
      SCOPED_TRACE(entries);
      TlbConfig config;
      config.entries = entries;
      config.replacement = replacement;
      Tlb bulk(config, 5);
      Tlb stepwise(config, 5);
      prng::Xoshiro128pp rng(entries);
      Address page = 0;
      for (std::size_t i = 0; i < 6000; ++i) {
        if (rng.UniformBelow(4) == 0) page = rng.UniformBelow(96);
        const Address addr = page * config.page_bytes + rng.UniformBelow(4096);
        ASSERT_EQ(bulk.Access(addr), stepwise.Access(addr)) << "access " << i;
        if (rng.UniformBelow(8) == 0) {
          const std::uint32_t k = 1 + rng.UniformBelow(64);
          bulk.MruHits(k);
          for (std::uint32_t j = 0; j < k; ++j) {
            ASSERT_TRUE(stepwise.Access(addr));
          }
        }
      }
      EXPECT_EQ(bulk.stats().accesses, stepwise.stats().accesses);
      EXPECT_EQ(bulk.stats().misses, stepwise.stats().misses);
      for (std::size_t slot = 0; slot < bulk.EntrySlots(); ++slot) {
        ASSERT_EQ(bulk.VpnAt(slot), stepwise.VpnAt(slot)) << "slot " << slot;
      }
    }
  }
}

// --- Lookup shortcuts under upsets ----------------------------------------
//
// The fast models front their scans with two shortcuts: the slot of the
// last hit or fill and a line -> slot (page -> entry) hint table. A tag
// upset can forge a second copy of a line in its own set, or a copy in a
// set the placement never maps it to, and the shortcuts must then still
// name exactly the slot the reference scan picks: the first match in the
// line's set, or none. These streams revisit a short history of lines and
// their one-bit neighbours, and mix in flips that turn a neighbour's tag
// into a recent line, so forged copies arise next to the originals and
// next to shortcuts that point at them. Every hit/miss, the statistics
// and every slot's tag, stamp and reference bit must match the reference.

/// A flip that forges a copy of `line`: the first slot from `start` whose
/// word differs from it in one bit. Returns false when there is none.
template <typename Model>
bool ForgingFlip(const Model& model, std::size_t slots, std::uint64_t line,
                 std::size_t start, std::size_t* slot, unsigned* bit,
                 std::uint64_t (Model::*word_at)(std::size_t) const) {
  for (std::size_t k = 0; k < slots; ++k) {
    const std::size_t s = (start + k) % slots;
    const std::uint64_t diff = (model.*word_at)(s) ^ line;
    if (std::popcount(diff) == 1) {
      *slot = s;
      *bit = static_cast<unsigned>(std::countr_zero(diff));
      return true;
    }
  }
  return false;
}

template <typename Fast, typename Reference>
void ExpectSameSlots(const Fast& fast, const Reference& reference,
                     std::size_t slots,
                     std::uint64_t (Fast::*fast_word)(std::size_t) const,
                     std::uint64_t (Reference::*ref_word)(std::size_t) const,
                     std::size_t at) {
  for (std::size_t s = 0; s < slots; ++s) {
    ASSERT_EQ((reference.*ref_word)(s), (fast.*fast_word)(s))
        << "word of slot " << s << " after access " << at;
    ASSERT_EQ(reference.StampAt(s), fast.StampAt(s))
        << "stamp of slot " << s << " after access " << at;
    ASSERT_EQ(reference.ReferencedAt(s), fast.ReferencedAt(s))
        << "reference bit of slot " << s << " after access " << at;
  }
}

/// Drives `fast` and `reference` with one upset-laced stream of `count`
/// accesses at `unit`-byte granularity (line or page); `access` performs
/// one access on both and returns false when they disagree. Returns the
/// number of forging flips applied.
template <typename Fast, typename Reference, typename AccessFn,
          typename FlipFn>
std::size_t RunUpsetStream(Fast& fast, Reference& reference, std::size_t slots,
                           std::uint64_t (Fast::*fast_word)(std::size_t) const,
                           std::uint64_t (Reference::*ref_word)(std::size_t)
                               const,
                           std::uint32_t unit, std::uint64_t stream_seed,
                           unsigned neighbour_bits, AccessFn access,
                           FlipFn flip) {
  prng::Xoshiro128pp rng(stream_seed);
  const auto shift = static_cast<unsigned>(std::countr_zero(unit));
  std::vector<std::uint64_t> recent;  // the last few units touched
  std::size_t forged = 0;
  constexpr std::size_t kCount = 6000;
  for (std::size_t i = 0; i < kCount; ++i) {
    std::uint64_t unit_number = 0;
    const std::uint32_t kind = rng.UniformBelow(8);
    if (kind < 3 && !recent.empty()) {
      unit_number = recent[rng.UniformBelow(
          static_cast<std::uint32_t>(recent.size()))];
    } else if (kind < 5 && !recent.empty()) {
      unit_number = recent[rng.UniformBelow(static_cast<std::uint32_t>(
                        recent.size()))] ^
                    (1ULL << rng.UniformBelow(neighbour_bits));
    } else {
      unit_number = (0x40000000ULL >> shift) + rng.UniformBelow(512);
    }
    const Address addr = (unit_number << shift) + rng.UniformBelow(unit);
    const bool allocate = rng.UniformBelow(8) != 0;
    if (!access(addr, allocate)) {
      ADD_FAILURE() << "hit/miss diverged at access " << i;
      return forged;
    }
    recent.push_back(unit_number);
    if (recent.size() > 8) recent.erase(recent.begin());

    if (rng.UniformBelow(12) == 0) {
      std::size_t slot = 0;
      unsigned bit = 0;
      const std::uint64_t target = recent[rng.UniformBelow(
          static_cast<std::uint32_t>(recent.size()))];
      if (ForgingFlip(fast, slots, target,
                      rng.UniformBelow(static_cast<std::uint32_t>(slots)),
                      &slot, &bit, fast_word)) {
        ++forged;
      } else {
        slot = rng.UniformBelow(static_cast<std::uint32_t>(slots));
        bit = rng.UniformBelow(64);
      }
      flip(slot, bit);
    }
    if (i % 64 == 0 || i + 1 == kCount) {
      ExpectSameSlots(fast, reference, slots, fast_word, ref_word, i);
      if (::testing::Test::HasFatalFailure()) return forged;
    }
    // A mid-stream reseed moves every line: shortcuts recorded under the
    // old placement must not leak into the new one.
    if (i == 2 * kCount / 3) {
      fast.Reseed(stream_seed + 1);
      reference.Reseed(stream_seed + 1);
    }
  }
  return forged;
}

TEST(SimEquivalenceTest, CacheShortcutsMatchReferenceUnderUpsets) {
  for (const auto placement : kPlacements) {
    for (const auto replacement : kReplacements) {
      SCOPED_TRACE(static_cast<int>(placement) * 3 +
                   static_cast<int>(replacement));
      const CacheConfig config{2 * 1024, 32, 4, placement, replacement};
      for (const Seed seed : {Seed{3}, Seed{77}}) {
        Cache fast(config, seed);
        ReferenceCache reference(config, seed);
        const std::size_t forged = RunUpsetStream(
            fast, reference, fast.TagSlots(), &Cache::TagAt,
            &ReferenceCache::TagAt, config.line_bytes, seed * 31 + 5,
            /*neighbour_bits=*/12,
            [&](Address addr, bool allocate) {
              return reference.Access(addr, allocate) ==
                     fast.Access(addr, allocate);
            },
            [&](std::size_t slot, unsigned bit) {
              fast.CorruptTagBit(slot, bit);
              reference.CorruptTagBit(slot, bit);
            });
        EXPECT_GT(forged, 50u) << "the stream forged too few copies";
        EXPECT_EQ(reference.stats().accesses, fast.stats().accesses);
        EXPECT_EQ(reference.stats().misses, fast.stats().misses);
      }
    }
  }
}

TEST(SimEquivalenceTest, TlbShortcutsMatchReferenceUnderUpsets) {
  for (const auto replacement : kReplacements) {
    for (const std::uint32_t entries : {8u, 64u}) {
      SCOPED_TRACE(static_cast<int>(replacement));
      SCOPED_TRACE(entries);
      TlbConfig config;
      config.entries = entries;
      config.replacement = replacement;
      for (const Seed seed : {Seed{3}, Seed{77}}) {
        Tlb fast(config, seed);
        ReferenceTlb reference(config, seed);
        const std::size_t forged = RunUpsetStream(
            fast, reference, fast.EntrySlots(), &Tlb::VpnAt,
            &ReferenceTlb::VpnAt, config.page_bytes, seed * 31 + entries,
            /*neighbour_bits=*/8,
            [&](Address addr, bool) {
              return reference.Access(addr) == fast.Access(addr);
            },
            [&](std::size_t slot, unsigned bit) {
              fast.CorruptVpnBit(slot, bit);
              reference.CorruptVpnBit(slot, bit);
            });
        EXPECT_GT(forged, 50u) << "the stream forged too few copies";
        EXPECT_EQ(reference.stats().accesses, fast.stats().accesses);
        EXPECT_EQ(reference.stats().misses, fast.stats().misses);
      }
    }
  }
}

// End-to-end anchor: platform cycle counts for every placement x
// replacement combination on a fixed blend trace, frozen from the
// pre-refactor tree. Indices follow the enum order (placement: modulo,
// random-modulo, hash-random; replacement: LRU, random, NRU).
TEST(SimEquivalenceTest, PolicyComboGoldens) {
  struct Golden {
    int placement;
    int replacement;
    std::uint64_t cycles[3];  // run seeds 1, 2, 3
  };
  const Golden goldens[] = {
      {0, 0, {401567, 401567, 401567}}, {0, 1, {399190, 398718, 402619}},
      {0, 2, {402947, 402947, 402947}}, {1, 0, {399247, 402232, 401535}},
      {1, 1, {400301, 403257, 400180}}, {1, 2, {398291, 400329, 401479}},
      {2, 0, {420001, 423916, 424635}}, {2, 1, {417869, 426361, 423357}},
      {2, 2, {418238, 424671, 423770}},
  };
  trace::BlendSpec spec;
  spec.count = 20000;
  const trace::Trace t = trace::BlendTrace(spec, 2024);
  for (const auto& golden : goldens) {
    PlatformConfig config = RandLeon3Config();
    config.il1.placement = kPlacements[golden.placement];
    config.il1.replacement = kReplacements[golden.replacement];
    config.dl1.placement = kPlacements[golden.placement];
    config.dl1.replacement = kReplacements[golden.replacement];
    config.itlb.replacement = kReplacements[golden.replacement];
    config.dtlb.replacement = kReplacements[golden.replacement];
    Platform platform(config, 1);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      EXPECT_EQ(platform.Run(t, seed).cycles, golden.cycles[seed - 1])
          << "placement " << golden.placement << " replacement "
          << golden.replacement << " run seed " << seed;
    }
  }
}

}  // namespace
}  // namespace spta::sim
