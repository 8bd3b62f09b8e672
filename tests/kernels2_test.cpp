// Functional tests for the extended WCET-benchmark kernel suite (bubble
// sort, binary search, interpolation, LU solve) and for the new EVT
// Anderson-Darling diagnostic.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "apps/kernels.hpp"
#include "evt/ad_test.hpp"
#include "evt/gumbel.hpp"
#include "prng/xoshiro.hpp"
#include "trace/interpreter.hpp"

namespace spta {
namespace {

TEST(BubbleSortKernel, SortsArbitraryInput) {
  const int n = 24;
  const trace::Program p = apps::MakeBubbleSortProgram(n);
  trace::Interpreter interp(p);
  std::vector<std::int32_t> keys(n);
  prng::Xoshiro128pp rng(1);
  for (int i = 0; i < n; ++i) {
    keys[static_cast<std::size_t>(i)] =
        static_cast<std::int32_t>(rng.UniformBelow(1000));
    interp.WriteInt(0, static_cast<std::size_t>(i),
                    keys[static_cast<std::size_t>(i)]);
  }
  interp.Run();
  std::sort(keys.begin(), keys.end());
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(interp.ReadInt(0, static_cast<std::size_t>(i)),
              keys[static_cast<std::size_t>(i)]);
  }
}

TEST(BubbleSortKernel, SortedInputTakesShorterPath) {
  const int n = 16;
  const trace::Program p = apps::MakeBubbleSortProgram(n);
  trace::Interpreter sorted_in(p);
  trace::Interpreter reversed_in(p);
  for (int i = 0; i < n; ++i) {
    sorted_in.WriteInt(0, static_cast<std::size_t>(i), i);
    reversed_in.WriteInt(0, static_cast<std::size_t>(i), n - i);
  }
  const auto t_sorted = sorted_in.Run();
  const auto t_rev = reversed_in.Run();
  // Reversed input executes the swap block every comparison.
  EXPECT_GT(t_rev.instruction_count(), t_sorted.instruction_count());
  EXPECT_NE(t_rev.path_signature, t_sorted.path_signature);
}

TEST(BinarySearchKernel, FindsPresentAndAbsentKeys) {
  const int n = 64;
  const int queries = 4;
  const trace::Program p = apps::MakeBinarySearchProgram(n, queries);
  trace::Interpreter interp(p);
  for (int i = 0; i < n; ++i) {
    interp.WriteInt(0, static_cast<std::size_t>(i), 3 * i);  // 0,3,6,...
  }
  interp.WriteInt(1, 0, 0);        // first element
  interp.WriteInt(1, 1, 3 * 63);   // last element
  interp.WriteInt(1, 2, 3 * 20);   // middle element
  interp.WriteInt(1, 3, 100);      // absent (not a multiple of 3)
  interp.Run();
  EXPECT_EQ(interp.ReadInt(2, 0), 0);
  EXPECT_EQ(interp.ReadInt(2, 1), 63);
  EXPECT_EQ(interp.ReadInt(2, 2), 20);
  EXPECT_EQ(interp.ReadInt(2, 3), -1);
}

TEST(BinarySearchKernel, PathDependsOnProbeSequence) {
  const int n = 128;
  const trace::Program p = apps::MakeBinarySearchProgram(n, 1);
  trace::Interpreter a(p);
  trace::Interpreter b(p);
  for (int i = 0; i < n; ++i) {
    a.WriteInt(0, static_cast<std::size_t>(i), i);
    b.WriteInt(0, static_cast<std::size_t>(i), i);
  }
  a.WriteInt(1, 0, 0);       // leftmost: log2(n) probes
  b.WriteInt(1, 0, n - 65);  // different descent
  EXPECT_NE(a.Run().path_signature, b.Run().path_signature);
}

TEST(InterpolationKernel, InterpolatesClampsAndMatchesReference) {
  const int table = 8;
  const int queries = 5;
  const trace::Program p = apps::MakeInterpolationProgram(table, queries);
  trace::Interpreter interp(p);
  // y = x^2 on breakpoints 0,1,...,7.
  for (int i = 0; i < table; ++i) {
    interp.WriteFp(0, static_cast<std::size_t>(i), static_cast<double>(i));
    interp.WriteFp(1, static_cast<std::size_t>(i),
                   static_cast<double>(i) * i);
  }
  interp.WriteFp(2, 0, -1.0);  // below: clamp to y[0] = 0
  interp.WriteFp(2, 1, 10.0);  // above: clamp to y[7] = 49
  interp.WriteFp(2, 2, 2.5);   // between 2 and 3: 4 + 0.5*(9-4) = 6.5
  interp.WriteFp(2, 3, 6.0);   // exact breakpoint
  interp.WriteFp(2, 4, 0.25);  // first segment: 0 + 0.25*(1-0) = 0.25
  interp.Run();
  EXPECT_DOUBLE_EQ(interp.ReadFp(3, 0), 0.0);
  EXPECT_DOUBLE_EQ(interp.ReadFp(3, 1), 49.0);
  EXPECT_DOUBLE_EQ(interp.ReadFp(3, 2), 6.5);
  EXPECT_DOUBLE_EQ(interp.ReadFp(3, 3), 36.0);
  EXPECT_DOUBLE_EQ(interp.ReadFp(3, 4), 0.25);
}

TEST(InterpolationKernel, ThreePathsDistinguished) {
  const trace::Program p = apps::MakeInterpolationProgram(4, 1);
  const auto run_with = [&](double q) {
    trace::Interpreter interp(p);
    for (int i = 0; i < 4; ++i) {
      interp.WriteFp(0, static_cast<std::size_t>(i),
                     static_cast<double>(i));
      interp.WriteFp(1, static_cast<std::size_t>(i), 1.0);
    }
    interp.WriteFp(2, 0, q);
    return interp.Run().path_signature;
  };
  const auto below = run_with(-5.0);
  const auto inside = run_with(1.5);
  const auto above = run_with(9.0);
  EXPECT_NE(below, inside);
  EXPECT_NE(inside, above);
  EXPECT_NE(below, above);
}

TEST(LuSolveKernel, SolvesDiagonallyDominantSystem) {
  const int n = 6;
  const trace::Program p = apps::MakeLuSolveProgram(n);
  trace::Interpreter interp(p);
  // Build a well-conditioned system with a known solution.
  prng::Xoshiro128pp rng(3);
  std::vector<double> a(static_cast<std::size_t>(n) * n);
  std::vector<double> x_true(n);
  for (int i = 0; i < n; ++i) {
    x_true[static_cast<std::size_t>(i)] = 1.0 + 0.5 * i;
    for (int j = 0; j < n; ++j) {
      double v = 0.2 * (rng.UniformUnit() - 0.5);
      if (i == j) v += 4.0;  // diagonal dominance
      a[static_cast<std::size_t>(i * n + j)] = v;
      interp.WriteFp(0, static_cast<std::size_t>(i * n + j), v);
    }
  }
  for (int i = 0; i < n; ++i) {
    double bi = 0.0;
    for (int j = 0; j < n; ++j) {
      bi += a[static_cast<std::size_t>(i * n + j)] *
            x_true[static_cast<std::size_t>(j)];
    }
    interp.WriteFp(1, static_cast<std::size_t>(i), bi);
  }
  interp.Run();
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(interp.ReadFp(1, static_cast<std::size_t>(i)),
                x_true[static_cast<std::size_t>(i)], 1e-9);
  }
}

TEST(LuSolveKernel, IdentityMatrixIsNoOp) {
  const int n = 4;
  const trace::Program p = apps::MakeLuSolveProgram(n);
  trace::Interpreter interp(p);
  for (int i = 0; i < n; ++i) {
    interp.WriteFp(0, static_cast<std::size_t>(i * n + i), 1.0);
    interp.WriteFp(1, static_cast<std::size_t>(i), 2.0 + i);
  }
  interp.Run();
  for (int i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(interp.ReadFp(1, static_cast<std::size_t>(i)),
                     2.0 + i);
  }
}

// --- New EVT diagnostics ----------------------------------------------------

std::vector<double> GumbelSample(double mu, double beta, std::size_t n,
                                 std::uint64_t seed) {
  prng::Xoshiro128pp rng(seed);
  evt::GumbelDist d{mu, beta};
  std::vector<double> xs(n);
  for (auto& x : xs) x = d.Quantile(std::max(rng.UniformUnit(), 1e-12));
  return xs;
}

TEST(AndersonDarlingTest, AcceptsTrueModel) {
  const auto xs = GumbelSample(100.0, 5.0, 2000, 9);
  const auto fit = evt::FitGumbelMle(xs);
  const auto r = evt::AndersonDarlingGumbel(xs, fit);
  EXPECT_TRUE(r.NotRejected()) << "A*=" << r.adjusted;
  EXPECT_GT(r.a_squared, 0.0);
}

TEST(AndersonDarlingTest, RejectsWrongScale) {
  const auto xs = GumbelSample(100.0, 5.0, 2000, 10);
  const evt::GumbelDist wrong{100.0, 15.0};
  EXPECT_FALSE(evt::AndersonDarlingGumbel(xs, wrong).NotRejected());
}

TEST(AndersonDarlingTest, RejectsNormalData) {
  prng::Xoshiro128pp rng(11);
  std::vector<double> xs(4000);
  for (auto& x : xs) x = 50.0 + 4.0 * rng.Normal();
  const auto fit = evt::FitGumbelMle(xs);
  // A symmetric sample is a poor Gumbel; the tail-weighted AD sees it.
  EXPECT_FALSE(evt::AndersonDarlingGumbel(xs, fit).NotRejected());
}

}  // namespace
}  // namespace spta
