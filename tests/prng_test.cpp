// Unit + statistical tests for the PRNG stack: the shift registers, the
// combined hardware generator, the software engines, and the FIPS-style
// bitstream self-tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "prng/hw_prng.hpp"
#include "prng/lfsr.hpp"
#include "prng/self_test.hpp"
#include "prng/xoshiro.hpp"

namespace spta::prng {
namespace {

TEST(Lfsr43Test, NeverReachesZeroAndNoShortCycle) {
  Lfsr43 lfsr(0xdeadbeef);
  const std::uint64_t initial = lfsr.state();
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t s = lfsr.Step();
    ASSERT_NE(s, 0u);
    if (i > 0) {
      ASSERT_NE(s, initial) << "cycle shorter than " << i;
    }
  }
}

TEST(Lfsr43Test, ZeroSeedRemapped) {
  Lfsr43 lfsr(0);
  EXPECT_NE(lfsr.state(), 0u);
}

TEST(Lfsr43Test, StateStaysWithin43Bits) {
  Lfsr43 lfsr(~0ULL);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(lfsr.Step(), 1ULL << 43);
  }
}

TEST(Casr37Test, NeverReachesZeroAndNoShortCycle) {
  Casr37 casr(0x12345);
  const std::uint64_t initial = casr.state();
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t s = casr.Step();
    ASSERT_NE(s, 0u);
    ASSERT_LT(s, 1ULL << 37);
    if (i > 0) {
      ASSERT_NE(s, initial);
    }
  }
}

TEST(Casr37Test, DiffersFromLfsrSequence) {
  // The two registers must not be degenerate copies of each other.
  Lfsr43 lfsr(42);
  Casr37 casr(42);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if ((lfsr.Step() & 0xffff) == (casr.Step() & 0xffff)) ++same;
  }
  EXPECT_LT(same, 10);
}

TEST(HwPrngTest, DeterministicPerSeed) {
  HwPrng a(7);
  HwPrng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(HwPrngTest, DifferentSeedsDiverge) {
  HwPrng a(7);
  HwPrng b(8);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(HwPrngTest, PassesAllBitstreamTests) {
  HwPrng gen(0x1234abcd);
  EXPECT_TRUE(PassesAllBitTests([&] { return gen.Next(); }, 20000));
}

TEST(HwPrngTest, UniformBelowRespectsBound) {
  HwPrng gen(99);
  for (std::uint32_t bound : {1u, 2u, 3u, 7u, 64u, 1000u}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(gen.UniformBelow(bound), bound);
    }
  }
}

TEST(HwPrngTest, UniformBelowIsRoughlyUniform) {
  HwPrng gen(5);
  constexpr std::uint32_t kBound = 8;
  constexpr int kDraws = 80000;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[gen.UniformBelow(kBound)];
  const double expected = static_cast<double>(kDraws) / kBound;
  for (auto c : counts) {
    EXPECT_NEAR(c, expected, 5.0 * std::sqrt(expected));
  }
}

TEST(HwPrngTest, UniformUnitInRange) {
  HwPrng gen(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = gen.UniformUnit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(SplitMix64Test, KnownSequenceIsStable) {
  SplitMix64 sm(0);
  const std::uint64_t first = sm.Next();
  SplitMix64 sm2(0);
  EXPECT_EQ(sm2.Next(), first);
  EXPECT_NE(sm.Next(), first);
}

TEST(Xoshiro128ppTest, PassesAllBitstreamTests) {
  Xoshiro128pp gen(0xfeedface);
  EXPECT_TRUE(PassesAllBitTests([&] { return gen.Next(); }, 20000));
}

TEST(Xoshiro128ppTest, UniformBelowUnbiasedSmallBound) {
  Xoshiro128pp gen(17);
  constexpr std::uint32_t kBound = 3;
  std::vector<int> counts(kBound, 0);
  constexpr int kDraws = 90000;
  for (int i = 0; i < kDraws; ++i) ++counts[gen.UniformBelow(kBound)];
  for (auto c : counts) {
    EXPECT_NEAR(c, kDraws / 3.0, 5.0 * std::sqrt(kDraws / 3.0));
  }
}

TEST(Xoshiro128ppTest, NormalHasUnitMoments) {
  Xoshiro128pp gen(23);
  double sum = 0.0;
  double sumsq = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double z = gen.Normal();
    sum += z;
    sumsq += z * z;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sumsq / kN, 1.0, 0.03);
}

TEST(Xoshiro128ppTest, UniformRealRange) {
  Xoshiro128pp gen(29);
  for (int i = 0; i < 1000; ++i) {
    const double v = gen.UniformReal(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(SelfTest, MonobitDetectsAllOnes) {
  std::vector<std::uint32_t> words(1000, 0xffffffffu);
  EXPECT_FALSE(MonobitTest(words).passed);
}

TEST(SelfTest, RunsDetectsAlternatingPattern) {
  // 0101... has twice as many runs as expected.
  std::vector<std::uint32_t> words(1000, 0x55555555u);
  EXPECT_FALSE(RunsTest(words).passed);
}

TEST(SelfTest, PokerDetectsRepeatedNibble) {
  std::vector<std::uint32_t> words(1000, 0x77777777u);
  EXPECT_FALSE(PokerTest(words).passed);
}

TEST(SelfTest, AllPassOnGoodGenerator) {
  Xoshiro128pp gen(1);
  std::vector<std::uint32_t> words(20000);
  for (auto& w : words) w = gen.Next();
  EXPECT_TRUE(MonobitTest(words).passed);
  EXPECT_TRUE(PokerTest(words).passed);
  EXPECT_TRUE(RunsTest(words).passed);
}

// The platform PRNG must remain sound for *every* per-run seed derivation
// pattern the campaign uses.
class HwPrngSeedSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HwPrngSeedSweepTest, BitstreamQualityAcrossSeeds) {
  HwPrng gen(GetParam());
  EXPECT_TRUE(PassesAllBitTests([&] { return gen.Next(); }, 5000));
}

INSTANTIATE_TEST_SUITE_P(Seeds, HwPrngSeedSweepTest,
                         ::testing::Values(0ULL, 1ULL, 2ULL, 42ULL,
                                           0xffffffffffffffffULL,
                                           0x8000000000000000ULL,
                                           20170327ULL, 987654321ULL));

}  // namespace
}  // namespace spta::prng
