// Tests for the CLI-supporting libraries: flag parsing, sample CSV
// import/export, and the Good-Turing path-coverage estimator.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/sample_io.hpp"
#include "common/flags.hpp"
#include "mbpta/path_coverage.hpp"
#include "prng/xoshiro.hpp"

namespace spta {
namespace {

Flags MakeFlags(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, KeyValuePairs) {
  const auto f = MakeFlags({"--runs", "500", "--platform", "det"});
  EXPECT_EQ(f.GetInt("runs", 0), 500);
  EXPECT_EQ(f.GetString("platform"), "det");
  EXPECT_FALSE(f.Has("seed"));
  EXPECT_EQ(f.GetInt("seed", 42), 42);
}

TEST(FlagsTest, EqualsSyntaxAndBooleans) {
  const auto f = MakeFlags({"--alpha=0.01", "--per-path", "--quiet", "false"});
  EXPECT_DOUBLE_EQ(f.GetDouble("alpha", 0.0), 0.01);
  EXPECT_TRUE(f.GetBool("per-path"));
  EXPECT_FALSE(f.GetBool("quiet", true));
}

TEST(FlagsTest, PositionalArguments) {
  const auto f = MakeFlags({"analyze", "--input", "x.csv", "extra"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "analyze");
  EXPECT_EQ(f.positional()[1], "extra");
}

TEST(FlagsTest, UnknownFlagDetection) {
  const auto f = MakeFlags({"--runs", "5", "--tpyo", "1"});
  const auto unknown = f.UnknownFlags({"runs", "seed"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "tpyo");
}

TEST(FlagsDeathTest, NonNumericIntRejected) {
  const auto f = MakeFlags({"--runs", "many"});
  EXPECT_DEATH(f.GetInt("runs", 0), "expects an integer");
}

TEST(SampleIoTest, RoundTrip) {
  std::vector<analysis::RunSample> samples(3);
  samples[0].cycles = 100.0;
  samples[0].path_id = 1;
  samples[1].cycles = 250.0;
  samples[1].path_id = 0;
  samples[2].cycles = 175.0;
  samples[2].path_id = 7;
  std::ostringstream ss;
  analysis::WriteSamplesCsv(ss, samples);
  const auto obs = analysis::ReadSamplesCsv(ss.str());
  ASSERT_EQ(obs.size(), 3u);
  EXPECT_DOUBLE_EQ(obs[0].time, 100.0);
  EXPECT_EQ(obs[0].path_id, 1u);
  EXPECT_EQ(obs[2].path_id, 7u);
}

TEST(SampleIoTest, AcceptsCommentsBlanksAndMissingPath) {
  const auto obs =
      analysis::ReadSamplesCsv("# comment\n\n1000\n2000, 3\n  1500 \n");
  ASSERT_EQ(obs.size(), 3u);
  EXPECT_EQ(obs[0].path_id, 0u);
  EXPECT_EQ(obs[1].path_id, 3u);
  EXPECT_DOUBLE_EQ(obs[2].time, 1500.0);
}

TEST(SampleIoTest, HeaderLineTolerated) {
  const auto obs = analysis::ReadSamplesCsv("cycles,path_id\n123,4\n");
  ASSERT_EQ(obs.size(), 1u);
  EXPECT_DOUBLE_EQ(obs[0].time, 123.0);
}

TEST(SampleIoDeathTest, MalformedNumberMidFileRejected) {
  EXPECT_DEATH(analysis::ReadSamplesCsv("100\nnot-a-number\n"), "bad number");
}

TEST(PathCoverageTest, SinglePathHasFullCoverage) {
  std::vector<mbpta::PathObservation> obs(100, {0, 1.0});
  const auto r = mbpta::EstimatePathCoverage(obs);
  EXPECT_EQ(r.observed_paths, 1u);
  EXPECT_EQ(r.singleton_paths, 0u);
  EXPECT_DOUBLE_EQ(r.missing_mass, 0.0);
  EXPECT_TRUE(r.SufficientFor(1e-12));
}

TEST(PathCoverageTest, AllUniquePathsMeanNoCoverage) {
  std::vector<mbpta::PathObservation> obs;
  for (std::uint64_t i = 0; i < 50; ++i) obs.push_back({i, 1.0});
  const auto r = mbpta::EstimatePathCoverage(obs);
  EXPECT_EQ(r.observed_paths, 50u);
  EXPECT_EQ(r.singleton_paths, 50u);
  EXPECT_DOUBLE_EQ(r.missing_mass, 1.0);
  EXPECT_FALSE(r.SufficientFor(0.5));
}

TEST(PathCoverageTest, MixedCounts) {
  // Paths: 0 seen 3x, 1 seen 1x, 2 seen 1x -> missing mass 2/5.
  std::vector<mbpta::PathObservation> obs = {
      {0, 1.0}, {0, 1.0}, {0, 1.0}, {1, 1.0}, {2, 1.0}};
  const auto r = mbpta::EstimatePathCoverage(obs);
  EXPECT_EQ(r.observed_paths, 3u);
  EXPECT_EQ(r.singleton_paths, 2u);
  EXPECT_DOUBLE_EQ(r.missing_mass, 0.4);
  EXPECT_DOUBLE_EQ(r.coverage, 0.6);
}

TEST(PathCoverageTest, EstimatorTracksTruthOnSyntheticDistribution) {
  // Zipf-ish path distribution: measure empirically that the estimator is
  // in the right ballpark of the true unseen mass.
  std::vector<double> probs = {0.5, 0.25, 0.12, 0.06, 0.03, 0.02,
                               0.01, 0.005, 0.003, 0.002};
  prng::Xoshiro128pp rng(3);
  std::vector<mbpta::PathObservation> obs;
  std::vector<bool> seen(probs.size(), false);
  for (int i = 0; i < 200; ++i) {
    double u = rng.UniformUnit();
    std::uint64_t path = 0;
    for (std::size_t p = 0; p < probs.size(); ++p) {
      if (u < probs[p]) {
        path = p;
        break;
      }
      u -= probs[p];
      path = p;
    }
    seen[path] = true;
    obs.push_back({path, 1.0});
  }
  double true_unseen = 0.0;
  for (std::size_t p = 0; p < probs.size(); ++p) {
    if (!seen[p]) true_unseen += probs[p];
  }
  const auto r = mbpta::EstimatePathCoverage(obs);
  EXPECT_NEAR(r.missing_mass, true_unseen, 0.05);
}

}  // namespace
}  // namespace spta
