// Crash-safe campaign checkpointing (analysis/checkpoint.*) and atomic
// file publication (common/atomic_file.*): journal round trips, torn-line
// tolerance, alien-journal refusal, and the headline guarantee — kill a
// campaign at an arbitrary point, --resume it, and the samples (hence the
// pWCET) are bit-identical to an uninterrupted campaign.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/campaign.hpp"
#include "analysis/checkpoint.hpp"
#include "analysis/sample_io.hpp"
#include "apps/tvca.hpp"
#include "common/atomic_file.hpp"
#include "mbpta/mbpta.hpp"
#include "sim/config.hpp"
#include "sim/platform.hpp"

namespace {

using namespace spta;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each test as its own process, in parallel: the path is
    // private to the test (a fixture address can repeat across processes).
    path_ = ::testing::TempDir() + "spta_ckpt_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".ckpt";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  static std::string Slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }
  static void Dump(const std::string& p, const std::string& contents) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << contents;
  }

  static analysis::RunSample MakeSample(std::uint64_t i) {
    analysis::RunSample s;
    s.cycles = 1000.0 + static_cast<double>(i * 13);
    s.path_id = static_cast<std::uint32_t>(i % 5);
    s.detail.cycles = static_cast<Cycles>(s.cycles);
    s.detail.instructions = 100 + i;
    s.detail.il1.accesses = 10 * i;
    s.detail.il1.misses = i;
    s.detail.dram.accesses = i + 1;
    return s;
  }

  std::string path_;
};

TEST_F(CheckpointTest, JournalRoundTripRestoresEveryField) {
  analysis::CheckpointHeader header;
  header.campaign_seed = 42;
  header.runs = 8;
  header.distinct_scenarios = 3;
  header.workload_digest = analysis::TvcaWorkloadDigest();

  analysis::CheckpointJournal journal;
  std::string error;
  ASSERT_TRUE(journal.OpenNew(path_, header, /*fsync_interval=*/1, &error))
      << error;
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(journal.Append(i, MakeSample(i), &error)) << error;
  }
  ASSERT_TRUE(journal.Close(&error)) << error;

  analysis::CheckpointLoad load;
  ASSERT_TRUE(analysis::LoadCheckpoint(path_, &load, &error)) << error;
  EXPECT_EQ(load.header.campaign_seed, 42u);
  EXPECT_EQ(load.header.runs, 8u);
  EXPECT_EQ(load.header.distinct_scenarios, 3u);
  EXPECT_EQ(load.header.workload_digest, analysis::TvcaWorkloadDigest());
  EXPECT_EQ(load.completed, 8u);
  EXPECT_EQ(load.torn_lines, 0u);
  ASSERT_EQ(load.samples.size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(load.samples[i].has_value()) << "run " << i;
    const auto& s = *load.samples[i];
    const auto expect = MakeSample(i);
    EXPECT_EQ(s.cycles, expect.cycles);
    EXPECT_EQ(s.path_id, expect.path_id);
    EXPECT_EQ(s.detail.instructions, expect.detail.instructions);
    EXPECT_EQ(s.detail.il1.accesses, expect.detail.il1.accesses);
    EXPECT_EQ(s.detail.il1.misses, expect.detail.il1.misses);
    EXPECT_EQ(s.detail.dram.accesses, expect.detail.dram.accesses);
  }
}

TEST_F(CheckpointTest, TornFinalLineIsDroppedNotHalfIngested) {
  analysis::CheckpointHeader header;
  header.campaign_seed = 1;
  header.runs = 4;
  header.workload_digest = analysis::TvcaWorkloadDigest();

  analysis::CheckpointJournal journal;
  std::string error;
  ASSERT_TRUE(journal.OpenNew(path_, header, 1, &error));
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(journal.Append(i, MakeSample(i), &error));
  }
  ASSERT_TRUE(journal.Close(&error));

  // Crash mid-write: the last line loses its tail (checksum included).
  std::string contents = Slurp(path_);
  Dump(path_, contents.substr(0, contents.size() - 9));

  analysis::CheckpointLoad load;
  ASSERT_TRUE(analysis::LoadCheckpoint(path_, &load, &error)) << error;
  EXPECT_EQ(load.torn_lines, 1u);
  EXPECT_EQ(load.completed, 3u);
  EXPECT_FALSE(load.samples[3].has_value());
  EXPECT_TRUE(load.samples[2].has_value());
}

TEST_F(CheckpointTest, InteriorBitRotIsDetectedByTheLineChecksum) {
  analysis::CheckpointHeader header;
  header.campaign_seed = 1;
  header.runs = 4;
  header.workload_digest = analysis::TvcaWorkloadDigest();

  analysis::CheckpointJournal journal;
  std::string error;
  ASSERT_TRUE(journal.OpenNew(path_, header, 1, &error));
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(journal.Append(i, MakeSample(i), &error));
  }
  ASSERT_TRUE(journal.Close(&error));

  // Corrupt one digit inside run 1's record (keep line structure intact).
  std::string contents = Slurp(path_);
  std::size_t line_start = contents.find("\nrun 1 ") + 1;
  std::size_t digit = contents.find_first_of("0123456789", line_start + 6);
  contents[digit] = contents[digit] == '9' ? '8' : '9';
  Dump(path_, contents);

  analysis::CheckpointLoad load;
  ASSERT_TRUE(analysis::LoadCheckpoint(path_, &load, &error)) << error;
  EXPECT_EQ(load.torn_lines, 1u);
  EXPECT_FALSE(load.samples[1].has_value());
  EXPECT_TRUE(load.samples[0].has_value());
  EXPECT_TRUE(load.samples[2].has_value());
}

TEST_F(CheckpointTest, DamagedHeaderFailsTheWholeLoad) {
  analysis::CheckpointHeader header;
  header.campaign_seed = 1;
  header.runs = 2;
  header.workload_digest = analysis::TvcaWorkloadDigest();
  analysis::CheckpointJournal journal;
  std::string error;
  ASSERT_TRUE(journal.OpenNew(path_, header, 1, &error));
  ASSERT_TRUE(journal.Close(&error));

  std::string contents = Slurp(path_);
  contents[2] = 'X';  // inside the magic/header line
  Dump(path_, contents);

  analysis::CheckpointLoad load;
  EXPECT_FALSE(analysis::LoadCheckpoint(path_, &load, &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(CheckpointTest, ResumeRefusesAnAlienJournal) {
  const auto config = sim::DetLeon3Config();
  const apps::TvcaApp app;
  analysis::CampaignConfig cc;
  cc.runs = 6;
  cc.master_seed = 100;

  analysis::CheckpointOptions opts;
  opts.journal_path = path_;
  auto result = analysis::RunCampaign(analysis::Workload(app, cc),
                                      {config, 1, opts});
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_TRUE(result.completed);

  // Same journal, different campaign seed: refuse, don't mix samples.
  cc.master_seed = 101;
  opts.resume = true;
  result = analysis::RunCampaign(analysis::Workload(app, cc),
                                 {config, 1, opts});
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("journal"), std::string::npos) << result.error;

  // A fixed-trace workload goes through the same loop: a TVCA journal is
  // alien to a fixed-trace campaign, and so is its own journal under
  // another seed. A refused resume leaves the journal untouched.
  const trace::Trace t = app.BuildFrame(/*scenario_seed=*/42).trace;
  const std::string tvca_journal = Slurp(path_);
  result = analysis::RunCampaign(
      analysis::Workload(t, cc.runs, /*master_seed=*/100),
      {config, /*jobs=*/2, opts});
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("journal"), std::string::npos) << result.error;
  EXPECT_EQ(Slurp(path_), tvca_journal);

  opts.resume = false;
  result = analysis::RunCampaign(
      analysis::Workload(t, cc.runs, /*master_seed=*/100),
      {config, /*jobs=*/2, opts});
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_TRUE(result.completed);
  const std::string fixed_journal = Slurp(path_);
  opts.resume = true;
  result = analysis::RunCampaign(
      analysis::Workload(t, cc.runs, /*master_seed=*/101),
      {config, /*jobs=*/2, opts});
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("journal"), std::string::npos) << result.error;
  EXPECT_EQ(Slurp(path_), fixed_journal);
}

TEST_F(CheckpointTest, CheckpointedRunMatchesThePlainParallelRunner) {
  const auto config = sim::RandLeon3Config();
  const apps::TvcaApp app;
  analysis::CampaignConfig cc;
  cc.runs = 24;
  cc.master_seed = 555;
  const analysis::Workload workload(app, cc);

  const auto plain = analysis::RunCampaign(workload, {config, 2}).samples;

  analysis::CheckpointOptions opts;
  opts.journal_path = path_;
  const auto result = analysis::RunCampaign(workload, {config, 2, opts});
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.samples.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(result.samples[i].cycles, plain[i].cycles) << "run " << i;
    EXPECT_EQ(result.samples[i].path_id, plain[i].path_id) << "run " << i;
  }
}

TEST_F(CheckpointTest, ResumingACompleteJournalReExecutesNothing) {
  const auto config = sim::DetLeon3Config();
  const apps::TvcaApp app;
  analysis::CampaignConfig cc;
  cc.runs = 10;
  cc.master_seed = 2;
  const trace::Trace t = app.BuildFrame(/*scenario_seed=*/42).trace;

  // A TVCA campaign on one worker, then a fixed-trace campaign on two:
  // every run is restored and the journal gains no line.
  const analysis::Workload tvca(app, cc);
  const analysis::Workload fixed(t, cc.runs, cc.master_seed);
  for (const auto& [workload, jobs] :
       {std::pair<const analysis::Workload*, std::size_t>{&tvca, 1},
        {&fixed, 2}}) {
    SCOPED_TRACE(jobs);
    analysis::CheckpointOptions opts;
    opts.journal_path = path_;
    const auto first = analysis::RunCampaign(*workload, {config, jobs, opts});
    ASSERT_TRUE(first.ok()) << first.error;
    ASSERT_TRUE(first.completed);
    const std::string journal = Slurp(path_);

    opts.resume = true;
    const auto second = analysis::RunCampaign(*workload, {config, jobs, opts});
    ASSERT_TRUE(second.ok()) << second.error;
    EXPECT_TRUE(second.completed);
    EXPECT_EQ(second.resumed_runs, 10u);
    EXPECT_EQ(Slurp(path_), journal);
    ASSERT_EQ(second.samples.size(), first.samples.size());
    for (std::size_t i = 0; i < first.samples.size(); ++i) {
      EXPECT_EQ(second.samples[i].cycles, first.samples[i].cycles);
    }
  }
}

// The headline crash-safety guarantee, for three different campaign seeds:
// kill the campaign partway (the deterministic abort hook models SIGKILL
// at an arbitrary point — whatever made it to the journal is all that
// survives), resume, and require the final sample AND the fitted pWCET to
// be bit-identical to an uninterrupted campaign. (Every workload kind is
// killed and resumed against a per-run reference in the campaign matrix,
// tests/campaign_test.cpp.)
TEST_F(CheckpointTest, KillAndResumeIsBitIdenticalAcrossSeeds) {
  const auto config = sim::RandLeon3Config();
  const apps::TvcaApp app;
  const auto frame = app.BuildFrame(/*scenario_seed=*/42);
  const std::size_t runs = 45;

  for (const std::uint64_t seed : {909ULL, 1717ULL, 31415ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const analysis::Workload workload(frame.trace, runs, seed);
    const auto uninterrupted =
        analysis::RunCampaign(workload, {config, /*jobs=*/2}).samples;

    // Phase 1: "crash" after a seed-dependent number of appends.
    analysis::CheckpointOptions opts;
    opts.journal_path = path_;
    opts.abort_after_appends = 7 + static_cast<std::size_t>(seed % 23);
    const auto crashed =
        analysis::RunCampaign(workload, {config, /*jobs=*/2, opts});
    ASSERT_TRUE(crashed.ok()) << crashed.error;
    EXPECT_FALSE(crashed.completed);

    // Phase 2: resume from the journal, no abort.
    opts.abort_after_appends = 0;
    opts.resume = true;
    const auto resumed =
        analysis::RunCampaign(workload, {config, /*jobs=*/2, opts});
    ASSERT_TRUE(resumed.ok()) << resumed.error;
    ASSERT_TRUE(resumed.completed);
    EXPECT_GT(resumed.resumed_runs, 0u);
    EXPECT_LT(resumed.resumed_runs, runs);

    ASSERT_EQ(resumed.samples.size(), uninterrupted.size());
    std::vector<double> times_resumed, times_plain;
    for (std::size_t i = 0; i < runs; ++i) {
      ASSERT_EQ(resumed.samples[i].cycles, uninterrupted[i].cycles)
          << "run " << i;
      times_resumed.push_back(resumed.samples[i].cycles);
      times_plain.push_back(uninterrupted[i].cycles);
    }

    // Identical samples must fit an identical pWCET — compare the actual
    // quantiles, not just the inputs.
    mbpta::MbptaOptions mopts;
    mopts.min_blocks = 10;
    mopts.require_iid = false;  // equality of the fit is the point here
    const auto a = mbpta::AnalyzeSample(times_resumed, mopts);
    const auto b = mbpta::AnalyzeSample(times_plain, mopts);
    ASSERT_TRUE(a.curve.has_value());
    ASSERT_TRUE(b.curve.has_value());
    for (const double p : {1e-3, 1e-9, 1e-15}) {
      EXPECT_EQ(a.curve->QuantileForExceedance(p),
                b.curve->QuantileForExceedance(p));
    }

    std::remove(path_.c_str());
  }
}

// --- atomic file publication ---------------------------------------------

TEST(AtomicFile, WritesContentAndLeavesNoTempBehind) {
  const std::string path = ::testing::TempDir() + "spta_atomic_test.txt";
  std::string error;
  ASSERT_TRUE(AtomicWriteFile(path, "hello\nworld\n", &error)) << error;
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), "hello\nworld\n");

  // Overwrite must be atomic too (rename over the old file).
  ASSERT_TRUE(AtomicWriteFile(path, "v2", &error)) << error;
  std::ifstream in2(path);
  std::stringstream ss2;
  ss2 << in2.rdbuf();
  EXPECT_EQ(ss2.str(), "v2");
  std::remove(path.c_str());
}

TEST(AtomicFile, FailsCleanlyOnAnUnwritableDirectory) {
  std::string error;
  EXPECT_FALSE(AtomicWriteFile("/nonexistent-dir/x/y.txt", "data", &error));
  EXPECT_FALSE(error.empty());
}

TEST(AtomicFile, AnnotatedCsvExportRoundTripsWithDigest) {
  const std::string path = ::testing::TempDir() + "spta_atomic_samples.csv";
  std::vector<analysis::RunSample> samples;
  for (std::uint64_t i = 0; i < 40; ++i) {
    analysis::RunSample s;
    s.cycles = 2000.0 + static_cast<double>(i * 7);
    s.path_id = static_cast<std::uint32_t>(i % 2);
    samples.push_back(s);
  }
  std::string error;
  ASSERT_TRUE(
      analysis::WriteSamplesCsvFileAtomic(path, samples, /*faults=*/0, &error))
      << error;

  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::vector<mbpta::PathObservation> readback;
  analysis::CsvMeta meta;
  ASSERT_TRUE(
      analysis::TryReadSamplesCsv(text.str(), &readback, &meta, &error))
      << error;
  ASSERT_TRUE(meta.digest.has_value());
  EXPECT_EQ(*meta.digest, analysis::ObservationsDigest(readback));
  EXPECT_EQ(meta.faults, 0u);
  EXPECT_EQ(readback.size(), samples.size());
  std::remove(path.c_str());
}

}  // namespace
