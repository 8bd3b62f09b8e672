#include "analysis/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>

#include "analysis/checkpoint.hpp"
#include "common/assert.hpp"
#include "common/hash.hpp"
#include "common/thread_pool.hpp"
#include "obs/trace.hpp"

namespace spta::analysis {

Seed TvcaScenarioSeed(const CampaignConfig& config, std::size_t run_index) {
  const std::uint64_t scenario_index =
      config.distinct_scenarios == 0 ? run_index
                                     : run_index % config.distinct_scenarios;
  return DeriveSeed(config.master_seed, scenario_index);
}

Seed TvcaRunSeed(const CampaignConfig& config, std::size_t run_index) {
  return DeriveSeed(DeriveSeed(config.master_seed, "run"), run_index);
}

Seed FixedTraceRunSeed(std::uint64_t master_seed, std::size_t run_index) {
  return DeriveSeed(master_seed, run_index);
}

Workload::Workload(const apps::TvcaApp& app, const CampaignConfig& config)
    : app_(&app), config_(config), digest_(TvcaWorkloadDigest()) {
  SPTA_REQUIRE(config.runs >= 1);
}

Workload::Workload(const trace::Trace& t, std::size_t runs,
                   std::uint64_t master_seed)
    : config_{runs, master_seed, 0},
      digest_(FixedTraceWorkloadDigest(t)),
      fixed_{t.records, nullptr},
      fixed_path_id_(static_cast<std::uint32_t>(t.path_signature)) {
  SPTA_REQUIRE(runs >= 1);
}

std::size_t Workload::SuiteSize() const {
  return app_ != nullptr ? std::min(config_.distinct_scenarios, config_.runs)
                         : 0;
}

FrameView Workload::ForRun(std::size_t run_index,
                           apps::FrameScratch& scratch) const {
  if (app_ == nullptr) return {{&fixed_, 1}, fixed_path_id_};
  const apps::FrameSpans& frame =
      app_->BuildFrame(TvcaScenarioSeed(config_, run_index), scratch);
  return {frame.segments, frame.path_id};
}

Seed Workload::RunSeed(std::size_t run_index) const {
  return app_ != nullptr ? TvcaRunSeed(config_, run_index)
                         : FixedTraceRunSeed(config_.master_seed, run_index);
}

CheckpointHeader Workload::Header() const {
  return {config_.master_seed, config_.runs, config_.distinct_scenarios,
          digest_};
}

const char* Workload::SpanName() const {
  return app_ != nullptr ? "tvca_campaign" : "fixed_trace_campaign";
}

std::size_t DefaultJobs() { return ThreadPool::DefaultThreadCount(); }

namespace {

/// The per-worker arenas of a campaign: for each pool worker, one reusable
/// sim::Platform and one apps::FrameScratch side by side. The platform is
/// built on the worker's first run; the scratch holds no memory until the
/// worker builds its first frame, so a suite or fixed-trace campaign pays
/// nothing for it. Slot w is touched only by pool worker w, so no locks are
/// needed.
class WorkerArenas {
 public:
  WorkerArenas(const sim::PlatformConfig& config, std::size_t workers)
      : config_(config), slots_(workers) {}

  /// The calling pool worker's platform. Aborts off the pool.
  sim::Platform& Platform() {
    Slot& slot = Current();
    if (slot.platform == nullptr) {
      slot.platform =
          std::make_unique<sim::Platform>(config_, /*master_seed=*/0);
    }
    return *slot.platform;
  }
  /// The calling pool worker's frame scratch. Aborts off the pool.
  apps::FrameScratch& Frame() { return Current().frame; }

 private:
  // Cache-line aligned so workers never write to a shared line.
  struct alignas(64) Slot {
    std::unique_ptr<sim::Platform> platform;
    apps::FrameScratch frame;
  };
  Slot& Current() {
    const std::size_t w = ThreadPool::CurrentWorkerIndex();
    SPTA_CHECK_MSG(w != ThreadPool::kNotAWorker && w < slots_.size(),
                   "campaign body must run on a pool worker");
    return slots_[w];
  }

  const sim::PlatformConfig& config_;
  std::vector<Slot> slots_;
};

/// Creates the journal of `options`, or resumes it into `out`/`have`.
bool OpenJournal(const CheckpointHeader& header,
                 const CheckpointOptions& options, CheckpointJournal* journal,
                 CampaignResult* out, std::vector<char>* have) {
  if (!options.resume) {
    return journal->OpenNew(options.journal_path, header,
                            options.fsync_interval, &out->error);
  }
  CheckpointLoad load;
  if (!journal->OpenResume(options.journal_path, header,
                           options.fsync_interval, &load, &out->error)) {
    return false;
  }
  for (std::size_t r = 0; r < header.runs; ++r) {
    if (load.samples[r].has_value()) {
      out->samples[r] = *load.samples[r];
      (*have)[r] = 1;
    }
  }
  out->resumed_runs = load.completed;
  out->torn_lines = load.torn_lines;
  return true;
}

}  // namespace

CampaignResult RunCampaign(const Workload& workload, const CampaignPlan& plan) {
  CampaignResult out;
  if (plan.journal.has_value() && plan.faults.Active()) {
    out.error =
        "--checkpoint journals clean campaigns only (drop the fault flags)";
    return out;
  }
  const std::size_t runs = workload.runs();
  out.samples.resize(runs);
  std::vector<char> have(runs, 0);
  CheckpointJournal journal;
  if (plan.journal.has_value() &&
      !OpenJournal(workload.Header(), *plan.journal, &journal, &out, &have)) {
    return out;
  }
  std::vector<std::size_t> missing;
  for (std::size_t r = 0; r < runs; ++r) {
    if (!have[r]) missing.push_back(r);
  }

  ThreadPool pool(plan.jobs);
  WorkerArenas arenas(plan.platform, pool.size());
  SPTA_OBS_SPAN_ARG("campaign", workload.SpanName(), "runs", runs);
  // A suite's frames are built once, on the pool, each into a scratch of
  // its own. The scratches are never moved: the views point into them.
  std::vector<apps::FrameScratch> suite(workload.SuiteSize());
  std::vector<FrameView> suite_frames(suite.size());
  if (!suite.empty()) {
    SPTA_OBS_SPAN_ARG("analysis", "suite_build", "frames", suite.size());
    ParallelFor(pool, suite.size(), [&](std::size_t i) {
      suite_frames[i] = workload.ForRun(i, suite[i]);
    });
  }
  const FaultWindow& faults = plan.faults;
  std::atomic<std::uint64_t> injected{0};
  std::atomic<std::uint64_t> dropped{0};
  // Appends are serialized under a mutex; the abort hook fires under the
  // same mutex so the journal holds EXACTLY abort_after_appends new
  // records when it triggers (a deterministic simulated crash, whatever
  // the thread schedule).
  const std::size_t abort_after =
      plan.journal.has_value() ? plan.journal->abort_after_appends : 0;
  std::mutex journal_mutex;
  std::atomic<bool> stop{false};
  std::size_t appended = 0;
  bool append_failed = false;
  std::string append_error;
  ParallelFor(pool, missing.size(), [&](std::size_t u) {
    if (stop.load(std::memory_order_relaxed)) return;
    const std::size_t r = missing[u];
    SPTA_OBS_SPAN_ARG("campaign", "run", "run", r);
    const FrameView frame = suite.empty()
                                ? workload.ForRun(r, arenas.Frame())
                                : suite_frames[r % suite.size()];
    std::size_t seed_run = r;
    if (faults.seed_run) {
      seed_run = faults.seed_run(r);
      if (seed_run != r) dropped.fetch_add(1, std::memory_order_relaxed);
    }
    std::function<void(sim::Platform&)> after_reset;
    if (faults.after_reset) {
      after_reset = [&faults, &injected, r](sim::Platform& p) {
        injected.fetch_add(faults.after_reset(p, r),
                           std::memory_order_relaxed);
      };
    }
    RunSample s;
    {
      SPTA_OBS_SPAN("sim", "simulate");
      s.detail = arenas.Platform().RunWithHook(
          frame.segments, workload.RunSeed(seed_run), after_reset);
    }
    s.cycles = static_cast<double>(s.detail.cycles);
    s.path_id = frame.path_id;
    if (!journal.IsOpen()) {
      out.samples[r] = std::move(s);
      have[r] = 1;
      return;
    }
    std::lock_guard<std::mutex> lock(journal_mutex);
    if (stop.load(std::memory_order_relaxed) || append_failed) return;
    if (abort_after != 0 && appended >= abort_after) {
      stop.store(true, std::memory_order_relaxed);
      return;
    }
    if (!journal.Append(r, s, &append_error)) {
      append_failed = true;
      return;
    }
    ++appended;
    out.samples[r] = std::move(s);
    have[r] = 1;
  });

  out.faults_injected = injected.load();
  out.reseeds_dropped = dropped.load();
  if (append_failed) {
    out.error = append_error;
    return out;
  }
  if (!journal.Close(&out.error)) return out;
  out.completed =
      std::all_of(have.begin(), have.end(), [](char h) { return h != 0; });
  return out;
}

std::vector<double> ExtractTimes(std::span<const RunSample> samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const auto& s : samples) out.push_back(s.cycles);
  return out;
}

std::vector<mbpta::PathObservation> ToPathObservations(
    std::span<const RunSample> samples) {
  std::vector<mbpta::PathObservation> out;
  out.reserve(samples.size());
  for (const auto& s : samples) {
    out.push_back({s.path_id, s.cycles});
  }
  return out;
}

}  // namespace spta::analysis
