// Thread-safety battery for the parallel campaign runner and its pool.
//
// The load-bearing claim is the determinism contract: the parallel runner
// produces a sample vector BIT-IDENTICAL to the serial runner's for every
// job count, because each run owns a fresh sim::Platform and derives its
// seeds purely from (campaign seed, run index). These tests assert that
// contract on the TVCA workload and on a synthetic kernel, check the
// per-path partitions, pin the audited platform properties it leans on,
// and stress the ThreadPool primitive itself. Run them under
// -DSPTA_SANITIZE=thread to get the data-race proof (see README).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/campaign.hpp"
#include "analysis/checkpoint.hpp"
#include "analysis/parallel_campaign.hpp"
#include "apps/tvca.hpp"
#include "common/thread_pool.hpp"
#include "fault/campaign.hpp"
#include "fault/seu.hpp"
#include "sim/platform.hpp"
#include "trace/synthetic.hpp"

namespace spta {
namespace {

// Small TVCA sizing so a multi-hundred-run sweep stays fast; jitter
// sources (cache-sized footprint, FP ops, mode branches) are preserved.
apps::TvcaConfig SmallTvca() {
  apps::TvcaConfig c;
  c.sensor_channels = 4;
  c.samples_per_frame = 8;
  c.fir_taps = 6;
  c.state_dim = 8;
  c.integrator_steps = 6;
  c.control_iterations = 1;
  c.straightline_instructions = 200;
  c.dispatch_overhead = 32;
  return c;
}

void ExpectSameSamples(const std::vector<analysis::RunSample>& a,
                       const std::vector<analysis::RunSample>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    // Full-detail comparison: end-to-end cycles plus every per-resource
    // statistic must agree, not just the headline number.
    EXPECT_EQ(a[i].cycles, b[i].cycles);
    EXPECT_EQ(a[i].path_id, b[i].path_id);
    EXPECT_EQ(a[i].detail.cycles, b[i].detail.cycles);
    EXPECT_EQ(a[i].detail.instructions, b[i].detail.instructions);
    EXPECT_EQ(a[i].detail.il1.accesses, b[i].detail.il1.accesses);
    EXPECT_EQ(a[i].detail.il1.misses, b[i].detail.il1.misses);
    EXPECT_EQ(a[i].detail.dl1.accesses, b[i].detail.dl1.accesses);
    EXPECT_EQ(a[i].detail.dl1.misses, b[i].detail.dl1.misses);
    EXPECT_EQ(a[i].detail.itlb.misses, b[i].detail.itlb.misses);
    EXPECT_EQ(a[i].detail.dtlb.misses, b[i].detail.dtlb.misses);
    EXPECT_EQ(a[i].detail.fpu.operations, b[i].detail.fpu.operations);
    EXPECT_EQ(a[i].detail.fpu.total_cycles, b[i].detail.fpu.total_cycles);
    EXPECT_EQ(a[i].detail.store_buffer.stores,
              b[i].detail.store_buffer.stores);
    EXPECT_EQ(a[i].detail.bus.transactions, b[i].detail.bus.transactions);
    EXPECT_EQ(a[i].detail.dram.accesses, b[i].detail.dram.accesses);
  }
}

// ---------------------------------------------------------------------------
// Bit-identity on the TVCA workload, fixed scenario suite, for every job
// count (1 = pool-of-one, 2/4 = even fan-out, 7 = odd count on purpose so
// chunk boundaries never align with the run count).
class TvcaJobSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TvcaJobSweep, BitIdenticalToSerialRunner) {
  const apps::TvcaApp app(SmallTvca());
  analysis::CampaignConfig cc;
  cc.runs = 90;
  cc.distinct_scenarios = 6;

  sim::Platform platform(sim::RandLeon3Config(), cc.master_seed);
  const auto serial = analysis::RunTvcaCampaign(platform, app, cc);
  const auto parallel = analysis::RunTvcaCampaignParallel(
      sim::RandLeon3Config(), app, cc, GetParam());
  ExpectSameSamples(serial, parallel);
}

INSTANTIATE_TEST_SUITE_P(Jobs, TvcaJobSweep,
                         ::testing::Values(1u, 2u, 4u, 7u));

TEST(ParallelCampaignTest, FreshInputCampaignBitIdentical) {
  // distinct_scenarios == 0: every run draws fresh inputs, so the workers
  // build their own frames; traces must still match the serial runner's.
  const apps::TvcaApp app(SmallTvca());
  analysis::CampaignConfig cc;
  cc.runs = 40;
  cc.distinct_scenarios = 0;

  sim::Platform platform(sim::RandLeon3Config(), cc.master_seed);
  const auto serial = analysis::RunTvcaCampaign(platform, app, cc);
  const auto parallel = analysis::RunTvcaCampaignParallel(
      sim::RandLeon3Config(), app, cc, 4);
  ExpectSameSamples(serial, parallel);
}

// ---------------------------------------------------------------------------
// Fresh inputs (distinct_scenarios == 0) through every pool runner. Each
// worker builds run r's frame into its own reused FrameScratch on its own
// reused Platform; these pin that the reuse is invisible: every runner
// reproduces a reference that builds each frame by value and measures it
// on a Platform constructed for that run alone.

/// The reference samples: run r measures app.BuildFrame(scenario seed) on
/// a fresh Platform under TvcaRunSeed, with `hook(platform, r)` in the
/// RunWithHook window when given.
std::vector<analysis::RunSample> FreshReference(
    const apps::TvcaApp& app, const analysis::CampaignConfig& cc,
    const std::function<void(sim::Platform&, std::size_t)>& hook = {}) {
  std::vector<analysis::RunSample> samples;
  for (std::size_t r = 0; r < cc.runs; ++r) {
    const apps::TvcaFrame frame =
        app.BuildFrame(analysis::TvcaScenarioSeed(cc, r));
    sim::Platform platform(sim::RandLeon3Config(), /*master_seed=*/r);
    analysis::RunSample s;
    s.detail = platform.RunWithHook(
        frame.trace, analysis::TvcaRunSeed(cc, r), [&](sim::Platform& p) {
          if (hook) hook(p, r);
        });
    s.cycles = static_cast<double>(s.detail.cycles);
    s.path_id = frame.path_id;
    samples.push_back(s);
  }
  return samples;
}

class FreshInputRunners : public ::testing::TestWithParam<std::size_t> {
 protected:
  FreshInputRunners() {
    cc_.runs = 24;
    cc_.distinct_scenarios = 0;
    cc_.master_seed = 31;
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    journal_ = ::testing::TempDir() + "spta_fresh_" + name + ".ckpt";
    std::remove(journal_.c_str());
  }
  ~FreshInputRunners() override { std::remove(journal_.c_str()); }

  std::size_t jobs() const { return GetParam(); }

  const apps::TvcaApp app_{SmallTvca()};
  analysis::CampaignConfig cc_;
  std::string journal_;
};

TEST_P(FreshInputRunners, ParallelAndSerialMatchTheReference) {
  const auto reference = FreshReference(app_, cc_);
  ExpectSameSamples(reference, analysis::RunTvcaCampaignParallel(
                                   sim::RandLeon3Config(), app_, cc_, jobs()));
  sim::Platform platform(sim::RandLeon3Config(), cc_.master_seed);
  ExpectSameSamples(reference,
                    analysis::RunTvcaCampaign(platform, app_, cc_));
}

TEST_P(FreshInputRunners, CheckpointedKillAndResumeMatchTheReference) {
  analysis::CheckpointOptions opts;
  opts.journal_path = journal_;
  opts.abort_after_appends = cc_.runs / 3;
  analysis::CheckpointedCampaignResult killed;
  std::string error;
  ASSERT_TRUE(analysis::RunTvcaCampaignCheckpointed(
      sim::RandLeon3Config(), app_, cc_, jobs(), opts, &killed, &error))
      << error;
  ASSERT_FALSE(killed.completed);

  opts.abort_after_appends = 0;
  opts.resume = true;
  analysis::CheckpointedCampaignResult resumed;
  ASSERT_TRUE(analysis::RunTvcaCampaignCheckpointed(
      sim::RandLeon3Config(), app_, cc_, jobs(), opts, &resumed, &error))
      << error;
  ASSERT_TRUE(resumed.completed);
  EXPECT_EQ(resumed.resumed_runs, cc_.runs / 3);
  ExpectSameSamples(FreshReference(app_, cc_), resumed.samples);
}

TEST_P(FreshInputRunners, FaultRunnerWithZeroRatesMatchesTheReference) {
  fault::FaultCampaignConfig fc;
  fc.base = cc_;
  const auto faulted = fault::RunTvcaCampaignWithFaults(
      sim::RandLeon3Config(), app_, fc, jobs());
  EXPECT_FALSE(faulted.Tainted());
  ExpectSameSamples(FreshReference(app_, cc_), faulted.samples);
}

TEST_P(FreshInputRunners, FaultRunnerWithSeusMatchesTheReference) {
  fault::FaultCampaignConfig fc;
  fc.base = cc_;
  fc.seu.upsets_per_run = 3.0;
  fc.fault_seed = 4242;
  const auto faulted = fault::RunTvcaCampaignWithFaults(
      sim::RandLeon3Config(), app_, fc, jobs());
  EXPECT_EQ(faulted.faults_injected, 3u * cc_.runs);
  ExpectSameSamples(
      FreshReference(app_, cc_,
                     [&](sim::Platform& p, std::size_t r) {
                       fault::InjectSeus(p, fc.seu, fc.fault_seed, r);
                     }),
      faulted.samples);
}

INSTANTIATE_TEST_SUITE_P(Jobs, FreshInputRunners, ::testing::Values(1u, 4u));

TEST(ParallelCampaignTest, JobCountsAgreeWithEachOther) {
  const apps::TvcaApp app(SmallTvca());
  analysis::CampaignConfig cc;
  cc.runs = 60;
  cc.distinct_scenarios = 4;
  cc.master_seed = 99;

  const auto reference = analysis::RunTvcaCampaignParallel(
      sim::RandLeon3Config(), app, cc, 1);
  for (std::size_t jobs : {2u, 4u, 7u}) {
    SCOPED_TRACE(jobs);
    const auto other = analysis::RunTvcaCampaignParallel(
        sim::RandLeon3Config(), app, cc, jobs);
    ExpectSameSamples(reference, other);
  }
}

// ---------------------------------------------------------------------------
// Bit-identity on a synthetic kernel (fixed-trace campaign).
class SyntheticJobSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SyntheticJobSweep, FixedTraceBitIdenticalToSerial) {
  trace::BlendSpec spec;
  spec.count = 6000;
  spec.fp_pm = 120;
  const trace::Trace t = trace::BlendTrace(spec, 5);

  sim::Platform platform(sim::RandLeon3Config(), 1);
  const auto serial = analysis::RunFixedTraceCampaign(platform, t, 64, 2024);
  const auto parallel = analysis::RunFixedTraceCampaignParallel(
      sim::RandLeon3Config(), t, 64, 2024, GetParam());
  ExpectSameSamples(serial, parallel);
}

INSTANTIATE_TEST_SUITE_P(Jobs, SyntheticJobSweep,
                         ::testing::Values(1u, 2u, 4u, 7u));

// ---------------------------------------------------------------------------
// Per-path sample partitions: grouping observations by path id must give
// the same per-path subsequences under serial and parallel collection.
TEST(ParallelCampaignTest, PerPathPartitionsMatchSerial) {
  const apps::TvcaApp app(SmallTvca());
  analysis::CampaignConfig cc;
  cc.runs = 120;
  cc.distinct_scenarios = 12;  // several distinct paths in the suite

  sim::Platform platform(sim::RandLeon3Config(), cc.master_seed);
  const auto serial_obs =
      analysis::ToPathObservations(analysis::RunTvcaCampaign(platform, app, cc));
  const auto parallel_obs = analysis::ToPathObservations(
      analysis::RunTvcaCampaignParallel(sim::RandLeon3Config(), app, cc, 4));

  auto partition = [](const std::vector<mbpta::PathObservation>& obs) {
    std::map<std::uint32_t, std::vector<double>> by_path;
    for (const auto& o : obs) by_path[o.path_id].push_back(o.time);
    return by_path;
  };
  const auto serial_parts = partition(serial_obs);
  const auto parallel_parts = partition(parallel_obs);
  ASSERT_GT(serial_parts.size(), 1u);  // the suite exercises >1 path
  EXPECT_EQ(serial_parts, parallel_parts);
}

// ---------------------------------------------------------------------------
// The audited platform properties the contract leans on.
TEST(ParallelCampaignTest, RunResultIndependentOfConstructionSeed) {
  // Platform::Run performs the full reset protocol, so the result is a
  // pure function of (config, trace, run seed) — the construction-time
  // master seed and platform history must not leak into it.
  trace::BlendSpec spec;
  spec.count = 4000;
  const trace::Trace t = trace::BlendTrace(spec, 3);

  sim::Platform a(sim::RandLeon3Config(), 1);
  sim::Platform b(sim::RandLeon3Config(), 0xabcdef);
  (void)b.Run(t, 999);  // dirty b's history before the compared run
  for (Seed run_seed : {Seed{0}, Seed{7}, Seed{20170327}}) {
    SCOPED_TRACE(run_seed);
    EXPECT_EQ(a.Run(t, run_seed).cycles, b.Run(t, run_seed).cycles);
  }
}

TEST(ParallelCampaignTest, TvcaFrameBuildingIsPureAndShareable) {
  // TvcaApp is immutable after construction; concurrent BuildFrame calls
  // on one shared instance must agree with a serial build.
  const apps::TvcaApp app(SmallTvca());
  std::vector<apps::TvcaFrame> serial;
  for (std::uint64_t s = 0; s < 16; ++s) serial.push_back(app.BuildFrame(s));

  std::vector<apps::TvcaFrame> concurrent(16);
  ThreadPool pool(4);
  ParallelFor(pool, 16, [&](std::size_t s) {
    concurrent[s] = app.BuildFrame(s);
  });
  for (std::size_t s = 0; s < 16; ++s) {
    SCOPED_TRACE(s);
    EXPECT_EQ(serial[s].path_id, concurrent[s].path_id);
    ASSERT_EQ(serial[s].trace.records.size(),
              concurrent[s].trace.records.size());
    EXPECT_EQ(serial[s].trace.path_signature,
              concurrent[s].trace.path_signature);
  }
}

// ---------------------------------------------------------------------------
// ThreadPool battery.
TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
  EXPECT_GE(analysis::DefaultJobs(), 1u);
}

TEST(ThreadPoolTest, ExecutesEverySubmittedTask) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&done] { done.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(done.load(), 100);
  }
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.Submit([&done] { done.fetch_add(1); });
    // No Wait(): the destructor must still run everything before joining.
  }
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossBatches) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 20; ++i) pool.Submit([&count] { count.fetch_add(1); });
    pool.Wait();
    EXPECT_EQ(count.load(), (batch + 1) * 20);
  }
}

TEST(ThreadPoolTest, WaitRethrowsFirstTaskException) {
  ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.Submit([] { throw std::runtime_error("task failed"); });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The pool stays usable after a failed batch.
  std::atomic<int> done{0};
  pool.Submit([&done] { done.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(done.load(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(7);
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  ParallelFor(pool, kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesDegenerateCounts) {
  ThreadPool pool(4);
  int zero_calls = 0;
  ParallelFor(pool, 0, [&](std::size_t) { ++zero_calls; });
  EXPECT_EQ(zero_calls, 0);

  std::atomic<int> one_calls{0};
  ParallelFor(pool, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    one_calls.fetch_add(1);
  });
  EXPECT_EQ(one_calls.load(), 1);

  // More workers than iterations: no over-claiming.
  std::vector<std::atomic<int>> hits(3);
  ParallelFor(pool, 3, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForPropagatesBodyException) {
  ThreadPool pool(3);
  EXPECT_THROW(ParallelFor(pool, 100,
                           [](std::size_t i) {
                             if (i == 42) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

}  // namespace
}  // namespace spta
