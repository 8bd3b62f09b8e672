// Tests for the PPCC goodness-of-fit statistic.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "evt/gof.hpp"
#include "evt/gumbel.hpp"
#include "prng/xoshiro.hpp"

namespace spta {
namespace {

std::vector<double> GumbelSample(double mu, double beta, std::size_t n,
                                 std::uint64_t seed) {
  prng::Xoshiro128pp rng(seed);
  evt::GumbelDist d{mu, beta};
  std::vector<double> xs(n);
  for (auto& x : xs) x = d.Quantile(std::max(rng.UniformUnit(), 1e-12));
  return xs;
}

TEST(PpccTest, NearOneForTrueModel) {
  const auto xs = GumbelSample(100.0, 5.0, 1000, 3);
  const auto fit = evt::FitGumbelMle(xs);
  EXPECT_GT(evt::Ppcc(xs, fit), 0.995);
}

TEST(PpccTest, DegradesForWrongDistribution) {
  // Uniform data dressed as Gumbel: correlation visibly below the
  // true-model case.
  prng::Xoshiro128pp rng(4);
  std::vector<double> xs(1000);
  for (auto& x : xs) x = rng.UniformUnit();
  const auto fit = evt::FitGumbelMle(xs);
  const double ppcc_uniform = evt::Ppcc(xs, fit);
  const auto good = GumbelSample(0.5, 0.1, 1000, 5);
  const double ppcc_good = evt::Ppcc(good, evt::FitGumbelMle(good));
  EXPECT_LT(ppcc_uniform, ppcc_good);
  EXPECT_LT(ppcc_uniform, 0.99);
}

TEST(PpccTest, InvariantToLocationScale) {
  // PPCC is a correlation: unchanged by affine rescaling of the data when
  // the model is refitted.
  const auto xs = GumbelSample(0.0, 1.0, 500, 6);
  std::vector<double> scaled(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    scaled[i] = 1e6 + 1e3 * xs[i];
  }
  const double a = evt::Ppcc(xs, evt::FitGumbelMle(xs));
  const double b = evt::Ppcc(scaled, evt::FitGumbelMle(scaled));
  EXPECT_NEAR(a, b, 1e-9);
}

}  // namespace
}  // namespace spta
