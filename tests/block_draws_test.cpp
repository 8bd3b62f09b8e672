// Equivalence battery for the batched PRNG front-end (prng::BlockDraws).
//
// The fast-path simulator replaced direct engine calls with block-buffered
// draws; MBPTA's bit-identity guarantee therefore rests on BlockDraws being
// observationally equal to the bare engine. These tests pin that contract:
// the served word stream is element-for-element the engine's stream across
// every refill-boundary alignment, and the derived draws (UniformBelow,
// UniformUnit) replay the engine's exact rejection/scaling arithmetic.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "prng/block_draws.hpp"
#include "prng/hw_prng.hpp"
#include "prng/xoshiro.hpp"

namespace spta::prng {
namespace {

constexpr std::size_t kBlock = BlockDraws<HwPrng>::kBlockSize;

template <typename Engine>
void ExpectIdenticalWordStream(std::uint64_t seed, std::size_t count) {
  Engine direct(seed);
  BlockDraws<Engine> batched{Engine(seed)};
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_EQ(direct.Next(), batched.Next()) << "word index " << i;
  }
}

TEST(BlockDrawsTest, HwPrngWordStreamIdenticalAcrossRefills) {
  // > 2 full refills plus a partial block, so the stream crosses the
  // buffer boundary mid-sequence more than once.
  ExpectIdenticalWordStream<HwPrng>(42, 2 * kBlock + kBlock / 3);
  ExpectIdenticalWordStream<HwPrng>(0, 3 * kBlock + 1);
}

TEST(BlockDrawsTest, XoshiroWordStreamIdenticalAcrossRefills) {
  ExpectIdenticalWordStream<Xoshiro128pp>(7, 2 * kBlock + 17);
  ExpectIdenticalWordStream<Xoshiro128pp>(0xdeadbeef, 4 * kBlock);
}

TEST(BlockDrawsTest, ManySeedsSpotCheck) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    ExpectIdenticalWordStream<HwPrng>(seed, kBlock + seed);
  }
}

TEST(BlockDrawsTest, RefillBoundaryAlignments) {
  // Start the comparison at every offset within one block: pre-consume
  // `offset` words from both sides, then check the next 2 blocks. This
  // catches any off-by-one at pos_ == fill_ regardless of alignment.
  for (std::size_t offset : {std::size_t{0}, std::size_t{1}, kBlock - 1,
                             kBlock, kBlock + 1}) {
    HwPrng direct(99);
    BlockDraws<HwPrng> batched{HwPrng(99)};
    for (std::size_t i = 0; i < offset; ++i) {
      ASSERT_EQ(direct.Next(), batched.Next());
    }
    for (std::size_t i = 0; i < 2 * kBlock; ++i) {
      ASSERT_EQ(direct.Next(), batched.Next())
          << "offset " << offset << " word " << i;
    }
  }
}

TEST(BlockDrawsTest, UniformBelowIdenticalToHwPrng) {
  // Interleave many bounds, including non-powers-of-two (which exercise
  // the rejection loop) and the cache/TLB way counts the simulator uses.
  const std::vector<std::uint32_t> bounds = {1,  2,  3,  4,  5,  7,  8,
                                             13, 16, 31, 32, 33, 64, 100};
  HwPrng direct(123);
  BlockDraws<HwPrng> batched{HwPrng(123)};
  for (std::size_t round = 0; round < 4 * kBlock; ++round) {
    const std::uint32_t bound = bounds[round % bounds.size()];
    ASSERT_EQ(direct.UniformBelow(bound), batched.UniformBelow(bound))
        << "round " << round << " bound " << bound;
  }
}

TEST(BlockDrawsTest, UniformUnitIdenticalToHwPrng) {
  HwPrng direct(321);
  BlockDraws<HwPrng> batched{HwPrng(321)};
  for (std::size_t i = 0; i < 3 * kBlock; ++i) {
    ASSERT_EQ(direct.UniformUnit(), batched.UniformUnit()) << "draw " << i;
  }
}

TEST(BlockDrawsTest, MixedDrawKindsStayInLockstep) {
  // The simulator mixes word draws and bounded draws on one stream; the
  // equivalence must hold under interleaving, not just per-kind.
  HwPrng direct(555);
  BlockDraws<HwPrng> batched{HwPrng(555)};
  for (std::size_t i = 0; i < 2 * kBlock; ++i) {
    switch (i % 3) {
      case 0:
        ASSERT_EQ(direct.Next(), batched.Next()) << i;
        break;
      case 1:
        ASSERT_EQ(direct.UniformBelow(static_cast<std::uint32_t>(1 + i % 63)),
                  batched.UniformBelow(static_cast<std::uint32_t>(1 + i % 63)))
            << i;
        break;
      default:
        ASSERT_EQ(direct.UniformUnit(), batched.UniformUnit()) << i;
        break;
    }
  }
}

TEST(BlockDrawsTest, BufferedCountTracksRefills) {
  BlockDraws<HwPrng> batched{HwPrng(1)};
  EXPECT_EQ(batched.buffered(), 0u);  // lazy: nothing drawn yet
  (void)batched.Next();
  EXPECT_EQ(batched.buffered(), kBlock - 1);
  for (std::size_t i = 1; i < kBlock; ++i) (void)batched.Next();
  EXPECT_EQ(batched.buffered(), 0u);
  (void)batched.Next();
  EXPECT_EQ(batched.buffered(), kBlock - 1);
}

TEST(BlockDrawsTest, StatsWordsExactAtRefillBoundaries) {
  // stats().words must count words actually SERVED, not words clocked into
  // the buffer: at every boundary alignment the figure has to agree with
  // the draw count, or a run's journalled `prng.words` would jump by a
  // block whenever a stream refills.
  for (const std::size_t draws :
       {kBlock - 1, kBlock, kBlock + 1, 2 * kBlock}) {
    BlockDraws<HwPrng> batched{HwPrng(17)};
    for (std::size_t i = 0; i < draws; ++i) (void)batched.Next();
    EXPECT_EQ(batched.stats().words, draws) << "draws " << draws;
    EXPECT_EQ(batched.stats().rejections, 0u);
  }
}

TEST(BlockDrawsTest, IndependentLanesRefillWithoutCrossPerturbation) {
  // The divergence hazard the batch kernel must not have: K lanes each own
  // a BlockDraws and consume at DIFFERENT rates (cache-miss-driven in the
  // real kernel), so refills land at different times across lanes. Each
  // lane's word stream and rejection sequence must match a direct engine
  // seeded identically — i.e. one lane exhausting its block mid-batch
  // must not perturb any sibling.
  constexpr std::size_t kLanes = 5;
  std::vector<BlockDraws<HwPrng>> lanes;
  std::vector<HwPrng> direct;
  for (std::size_t l = 0; l < kLanes; ++l) {
    lanes.emplace_back(HwPrng(1000 + l));
    direct.emplace_back(1000 + l);
  }
  std::vector<std::size_t> served(kLanes, 0);
  // Interleave draws lane-by-lane; lane l draws (l+1) times per round, so
  // the lanes drift apart and cross their refill boundaries on different
  // rounds.
  for (std::size_t round = 0; round < 2 * kBlock; ++round) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      for (std::size_t k = 0; k <= l; ++k) {
        if (round % 2 == 0) {
          ASSERT_EQ(lanes[l].Next(), direct[l].Next())
              << "lane " << l << " round " << round;
        } else {
          const auto bound = static_cast<std::uint32_t>(2 + (round + l) % 7);
          ASSERT_EQ(lanes[l].UniformBelow(bound),
                    direct[l].UniformBelow(bound))
              << "lane " << l << " round " << round;
        }
        ++served[l];
      }
    }
  }
  for (std::size_t l = 0; l < kLanes; ++l) {
    // Served words = one per call plus one per rejection re-draw; both
    // figures must match the direct engine's exact consumption.
    EXPECT_EQ(lanes[l].stats().words,
              served[l] + lanes[l].stats().rejections)
        << "lane " << l;
  }
}

TEST(BlockDrawsTest, RejectionThresholdMatchesDocumentedFormula) {
  for (std::uint32_t bound : {1u, 2u, 3u, 5u, 64u, 1000u, 0x80000000u}) {
    const std::uint64_t threshold = HwPrng::RejectionThreshold(bound);
    EXPECT_EQ(threshold, (0x1'0000'0000ULL / bound) * bound) << bound;
    EXPECT_EQ(threshold % bound, 0u) << bound;  // whole residue classes
    EXPECT_GT(threshold, 0x1'0000'0000ULL - bound);  // maximal acceptance
  }
}

}  // namespace
}  // namespace spta::prng
