// The campaign runner (analysis::RunCampaign) and its thread pool.
//
// The load-bearing claim is the determinism contract: whatever the plan —
// any job count, killed and resumed from a journal, under a fault window —
// the sample vector is BIT-IDENTICAL to a reference that measures every
// run on a Platform constructed for that run alone, because each run
// derives its frame, its seeds and its faults purely from (campaign seed,
// run index). The campaign matrix asserts that contract on every workload
// kind; the job sweeps add odd job counts; the remaining tests pin the
// audited platform properties it leans on and stress the ThreadPool
// primitive itself. Run them under -DSPTA_SANITIZE=thread to get the
// data-race proof (see README).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/campaign.hpp"
#include "apps/tvca.hpp"
#include "common/thread_pool.hpp"
#include "fault/campaign.hpp"
#include "fault/seu.hpp"
#include "sim/platform.hpp"
#include "trace/interpreter.hpp"
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

/// The reference samples: run r builds its frame by value (the TVCA
/// scenario of run r, or the fixed trace), measures it on a Platform
/// constructed for that run alone under the seed of run `seed_run(r)`,
/// and calls `hook(platform, r)` in the RunWithHook window when given.
/// Frames and seeds come from the seed-derivation functions, never from
/// the Workload under test.
std::vector<analysis::RunSample> Reference(
    const apps::TvcaApp* app, const trace::Trace* fixed,
    const analysis::CampaignConfig& cc,
    const std::function<std::size_t(std::size_t)>& seed_run = {},
    const std::function<void(sim::Platform&, std::size_t)>& hook = {}) {
  std::vector<analysis::RunSample> samples;
  for (std::size_t r = 0; r < cc.runs; ++r) {
    const std::size_t s = seed_run ? seed_run(r) : r;
    trace::Trace t;
    std::uint32_t path_id = 0;
    Seed run_seed = 0;
    if (app != nullptr) {
      const apps::TvcaFrame frame =
          app->BuildFrame(analysis::TvcaScenarioSeed(cc, r));
      t = frame.trace;
      path_id = frame.path_id;
      run_seed = analysis::TvcaRunSeed(cc, s);
    } else {
      t = *fixed;
      path_id = static_cast<std::uint32_t>(fixed->path_signature);
      run_seed = analysis::FixedTraceRunSeed(cc.master_seed, s);
    }
    sim::Platform platform(sim::RandLeon3Config(), /*master_seed=*/r);
    analysis::RunSample sample;
    sample.detail = platform.RunWithHook(t, run_seed, [&](sim::Platform& p) {
      if (hook) hook(p, r);
    });
    sample.cycles = static_cast<double>(sample.detail.cycles);
    sample.path_id = path_id;
    samples.push_back(sample);
  }
  return samples;
}

// ---------------------------------------------------------------------------
// The campaign matrix: workload × jobs × journal × faults, every cell
// against the per-run reference. Journal × faults is refused.

enum class Kind { kFresh, kSuite, kFixed };
enum class Journal { kPlain, kKilledAndResumed };
enum class Faults { kNone, kSeu, kReseedDropout };

struct Cell {
  Kind kind;
  std::size_t jobs;
  Journal journal;
  Faults faults;
};

/// Every combination of the four axes.
std::vector<Cell> AllCells() {
  std::vector<Cell> cells;
  for (const Kind kind : {Kind::kFresh, Kind::kSuite, Kind::kFixed}) {
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      for (const Journal journal :
           {Journal::kPlain, Journal::kKilledAndResumed}) {
        for (const Faults faults :
             {Faults::kNone, Faults::kSeu, Faults::kReseedDropout}) {
          cells.push_back({kind, jobs, journal, faults});
        }
      }
    }
  }
  return cells;
}

/// The cell's name ("fresh_jobs1_plain_clean"); CTest lists each cell
/// under it.
void PrintTo(const Cell& cell, std::ostream* os) {
  const char* kinds[] = {"fresh", "suite", "fixed"};
  const char* journals[] = {"plain", "resumed"};
  const char* faults[] = {"clean", "seu", "dropout"};
  *os << kinds[static_cast<int>(cell.kind)] << "_jobs" << cell.jobs << "_"
      << journals[static_cast<int>(cell.journal)] << "_"
      << faults[static_cast<int>(cell.faults)];
}

class CampaignMatrix : public ::testing::TestWithParam<Cell> {
 protected:
  CampaignMatrix() {
    const Cell& cell = GetParam();
    cc_.runs = 24;
    cc_.master_seed = 31;
    cc_.distinct_scenarios = cell.kind == Kind::kSuite ? 3 : 0;
    if (cell.faults == Faults::kSeu) faults_.seu.upsets_per_run = 3.0;
    if (cell.faults == Faults::kReseedDropout) faults_.reseed_dropout = 0.3;
    faults_.fault_seed = 4242;
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    journal_ = ::testing::TempDir() + "spta_matrix_" + name + ".ckpt";
    std::remove(journal_.c_str());
  }
  ~CampaignMatrix() override { std::remove(journal_.c_str()); }

  const apps::TvcaApp app_{SmallTvca()};
  const trace::Trace fixed_ = app_.BuildFrame(/*scenario_seed=*/42).trace;
  analysis::CampaignConfig cc_;
  fault::CampaignFaults faults_;
  std::string journal_;
};

TEST_P(CampaignMatrix, MatchesThePerRunReference) {
  const auto [kind, jobs, journal, faults] = GetParam();
  SCOPED_TRACE(::testing::PrintToString(GetParam()));
  const bool fixed = kind == Kind::kFixed;
  const analysis::Workload workload =
      fixed ? analysis::Workload(fixed_, cc_.runs, cc_.master_seed)
            : analysis::Workload(app_, cc_);
  analysis::CampaignPlan plan{sim::RandLeon3Config(), jobs};
  plan.faults = fault::MakeFaultWindow(faults_, cc_.master_seed);
  EXPECT_EQ(plan.faults.Active(), faults != Faults::kNone);

  analysis::CampaignResult result;
  if (journal == Journal::kPlain) {
    result = analysis::RunCampaign(workload, plan);
  } else {
    analysis::CheckpointOptions opts;
    opts.journal_path = journal_;
    opts.abort_after_appends = cc_.runs / 3;
    plan.journal = opts;
    const analysis::CampaignResult killed =
        analysis::RunCampaign(workload, plan);
    if (faults != Faults::kNone) {
      // Journals hold clean campaigns only: refused, and no journal.
      EXPECT_FALSE(killed.ok());
      EXPECT_NE(killed.error.find("clean campaigns only"), std::string::npos)
          << killed.error;
      EXPECT_FALSE(std::ifstream(journal_).good());
      return;
    }
    ASSERT_TRUE(killed.ok()) << killed.error;
    ASSERT_FALSE(killed.completed);

    plan.journal->abort_after_appends = 0;
    plan.journal->resume = true;
    result = analysis::RunCampaign(workload, plan);
    EXPECT_EQ(result.resumed_runs, cc_.runs / 3);
  }
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_TRUE(result.completed);

  std::function<std::size_t(std::size_t)> seed_run;
  std::function<void(sim::Platform&, std::size_t)> hook;
  std::uint64_t dropped = 0;
  if (faults == Faults::kReseedDropout) {
    seed_run = [&](std::size_t r) {
      return fault::ReseedRun(faults_, cc_.master_seed, r);
    };
    for (std::size_t r = 0; r < cc_.runs; ++r) dropped += seed_run(r) != r;
    ASSERT_GT(dropped, 0u);
  }
  if (faults == Faults::kSeu) {
    hook = [&](sim::Platform& p, std::size_t r) {
      fault::InjectSeus(p, faults_.seu, faults_.fault_seed, r);
    };
  }
  EXPECT_EQ(result.faults_injected,
            faults == Faults::kSeu ? 3u * cc_.runs : 0u);
  EXPECT_EQ(result.reseeds_dropped, dropped);
  EXPECT_EQ(result.Tainted(), faults != Faults::kNone);
  ExpectSameSamples(
      Reference(fixed ? nullptr : &app_, fixed ? &fixed_ : nullptr, cc_,
                seed_run, hook),
      result.samples);
}

INSTANTIATE_TEST_SUITE_P(Matrix, CampaignMatrix,
                         ::testing::ValuesIn(AllCells()));

// ---------------------------------------------------------------------------
// Job sweeps with odd counts (1 = pool-of-one, 2/4 = even fan-out, 7 = odd
// on purpose so chunk boundaries never align with the run count): a TVCA
// scenario suite and a synthetic kernel (fixed-trace workload).
class TvcaJobSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TvcaJobSweep, BitIdenticalToSerialRunner) {
  const apps::TvcaApp app(SmallTvca());
  analysis::CampaignConfig cc;
  cc.runs = 90;
  cc.distinct_scenarios = 6;

  const auto result = analysis::RunCampaign(
      analysis::Workload(app, cc), {sim::RandLeon3Config(), GetParam()});
  ExpectSameSamples(Reference(&app, nullptr, cc), result.samples);
}

INSTANTIATE_TEST_SUITE_P(Jobs, TvcaJobSweep,
                         ::testing::Values(1u, 2u, 4u, 7u));

// A suite workload measures block-stream frames: every run's view holds
// its five jobs as block streams (not records), and expands to the
// records of its scenario's frame built as one owned trace.
TEST(SuiteWorkloadTest, RunsViewBlockStreamFramesOfTheirScenario) {
  const apps::TvcaApp app(SmallTvca());
  analysis::CampaignConfig cc;
  cc.runs = 14;
  cc.distinct_scenarios = 6;
  const analysis::Workload workload(app, cc);
  EXPECT_EQ(workload.SuiteSize(), 6u);
  EXPECT_EQ(analysis::Workload(app, {4, 1, 6}).SuiteSize(), 4u);
  EXPECT_EQ(analysis::Workload(app, {4, 1, 0}).SuiteSize(), 0u);

  apps::FrameScratch scratch;
  std::vector<trace::TraceRecord> records;
  for (std::size_t r = 0; r < cc.runs; ++r) {
    SCOPED_TRACE(r);
    const analysis::FrameView view = workload.ForRun(r, scratch);
    EXPECT_EQ(std::count_if(view.segments.begin(), view.segments.end(),
                            [](const trace::Segment& s) {
                              return s.blocks != nullptr;
                            }),
              5);
    const apps::TvcaFrame frame =
        app.BuildFrame(analysis::TvcaScenarioSeed(cc, r));
    trace::Flatten(view.segments, records);
    EXPECT_TRUE(records == frame.trace.records);
    EXPECT_EQ(view.path_id, frame.path_id);
  }
}

class SyntheticJobSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SyntheticJobSweep, FixedTraceBitIdenticalToSerial) {
  trace::BlendSpec spec;
  spec.count = 6000;
  spec.fp_pm = 120;
  const trace::Trace t = trace::BlendTrace(spec, 5);
  analysis::CampaignConfig cc;
  cc.runs = 64;
  cc.master_seed = 2024;

  const auto result =
      analysis::RunCampaign(analysis::Workload(t, cc.runs, cc.master_seed),
                            {sim::RandLeon3Config(), GetParam()});
  ExpectSameSamples(Reference(nullptr, &t, cc), result.samples);
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
  const analysis::Workload workload(app, cc);

  const auto serial_obs = analysis::ToPathObservations(
      analysis::RunCampaign(workload, {sim::RandLeon3Config(), 1}).samples);
  const auto parallel_obs = analysis::ToPathObservations(
      analysis::RunCampaign(workload, {sim::RandLeon3Config(), 4}).samples);

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
