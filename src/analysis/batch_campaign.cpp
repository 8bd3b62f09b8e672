#include "analysis/batch_campaign.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>

#include "analysis/parallel_campaign.hpp"
#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "obs/trace.hpp"
#include "sim/batch/batch_platform.hpp"
#include "sim/batch/prepared_trace.hpp"

namespace spta::analysis {
namespace {

std::size_t ClampLanes(std::size_t lanes) {
  if (lanes == 0) lanes = kDefaultBatchLanes;
  return std::min(lanes, sim::batch::BatchPlatform::kMaxLanes);
}

/// One reusable BatchPlatform per pool worker (the batched analogue of the
/// parallel runner's PlatformArenas; RunBatch performs the full per-run
/// reset protocol per lane, so arena reuse is bit-identical to fresh
/// construction).
class BatchArenas {
 public:
  BatchArenas(const sim::PlatformConfig& config, std::size_t lanes,
              std::size_t workers)
      : config_(config), lanes_(lanes), arenas_(workers) {}

  sim::batch::BatchPlatform& ForCurrentWorker() {
    const std::size_t w = ThreadPool::CurrentWorkerIndex();
    SPTA_CHECK_MSG(w != ThreadPool::kNotAWorker && w < arenas_.size(),
                   "campaign body must run on a pool worker");
    auto& arena = arenas_[w];
    if (arena == nullptr) {
      arena = std::make_unique<sim::batch::BatchPlatform>(config_, lanes_);
    }
    return *arena;
  }

 private:
  const sim::PlatformConfig& config_;
  std::size_t lanes_;
  std::vector<std::unique_ptr<sim::batch::BatchPlatform>> arenas_;
};

/// A batch work unit: up to `lanes` runs sharing one prepared trace.
struct Chunk {
  const sim::batch::PreparedTrace* prepared = nullptr;
  std::uint32_t path_id = 0;
  std::vector<std::size_t> runs;  ///< Absolute run indices, ascending.
};

/// Chunks the not-yet-done runs of a fixed-trace campaign.
std::vector<Chunk> BuildFixedChunks(const sim::batch::PreparedTrace& prepared,
                                    std::uint32_t path_id, std::size_t runs,
                                    std::size_t lanes,
                                    const std::vector<char>* have) {
  std::vector<Chunk> chunks;
  Chunk current{&prepared, path_id, {}};
  for (std::size_t r = 0; r < runs; ++r) {
    if (have != nullptr && (*have)[r]) continue;
    current.runs.push_back(r);
    if (current.runs.size() == lanes) {
      chunks.push_back(std::move(current));
      current = Chunk{&prepared, path_id, {}};
    }
  }
  if (!current.runs.empty()) chunks.push_back(std::move(current));
  return chunks;
}

/// Chunks the not-yet-done runs of a fixed-suite TVCA campaign, grouped by
/// scenario (runs r with equal r % distinct_scenarios share a frame).
std::vector<Chunk> BuildTvcaChunks(
    const CampaignConfig& config,
    const std::vector<apps::TvcaFrame>& suite,
    const std::vector<sim::batch::PreparedTrace>& prepared_suite,
    std::size_t lanes, const std::vector<char>* have) {
  std::vector<Chunk> chunks;
  for (std::size_t s = 0; s < suite.size(); ++s) {
    Chunk current{&prepared_suite[s], suite[s].path_id, {}};
    for (std::size_t r = s; r < config.runs;
         r += config.distinct_scenarios) {
      if (have != nullptr && (*have)[r]) continue;
      current.runs.push_back(r);
      if (current.runs.size() == lanes) {
        chunks.push_back(std::move(current));
        current = Chunk{&prepared_suite[s], suite[s].path_id, {}};
      }
    }
    if (!current.runs.empty()) chunks.push_back(std::move(current));
  }
  return chunks;
}

RunSample ToSample(const Chunk& chunk, sim::RunResult detail) {
  RunSample s;
  s.detail = detail;
  s.cycles = static_cast<double>(detail.cycles);
  s.path_id = chunk.path_id;
  return s;
}

/// Executes `chunks` on the pool; `emit(run_index, sample)` is called for
/// every completed run (concurrently, distinct indices). `keep_going`
/// lets the checkpointed runner cut measurement short after an abort.
void ExecuteChunks(ThreadPool& pool, BatchArenas& arenas,
                   const std::vector<Chunk>& chunks,
                   const std::function<Seed(std::size_t)>& seed_of,
                   const std::function<bool()>& keep_going,
                   const std::function<void(std::size_t, RunSample)>& emit) {
  ParallelFor(pool, chunks.size(), [&](std::size_t c) {
    if (!keep_going()) return;
    const Chunk& chunk = chunks[c];
    SPTA_OBS_SPAN_ARG("campaign", "run_batch", "lanes", chunk.runs.size());
    std::vector<Seed> seeds;
    seeds.reserve(chunk.runs.size());
    for (const std::size_t r : chunk.runs) seeds.push_back(seed_of(r));
    auto results =
        arenas.ForCurrentWorker().RunBatch(*chunk.prepared, seeds);
    for (std::size_t i = 0; i < chunk.runs.size(); ++i) {
      emit(chunk.runs[i], ToSample(chunk, results[i]));
    }
  });
}

constexpr auto kAlwaysGo = []() { return true; };

/// Journaled execution shared by both batched checkpointed runners: the
/// resume/restore and append disciplines are the serial skeleton's; only
/// the measurement fan-out (chunks instead of single runs) differs.
bool RunChunkedCheckpointed(
    const sim::PlatformConfig& platform_config, std::size_t lanes,
    ThreadPool& pool, const CheckpointHeader& header,
    const CheckpointOptions& options,
    const std::function<std::vector<Chunk>(const std::vector<char>&)>&
        build_chunks,
    const std::function<Seed(std::size_t)>& seed_of,
    CheckpointedCampaignResult* out, std::string* error) {
  SPTA_REQUIRE(!options.journal_path.empty());
  *out = CheckpointedCampaignResult{};
  out->samples.resize(header.runs);
  std::vector<char> have(header.runs, 0);

  CheckpointJournal journal;
  if (options.resume) {
    CheckpointLoad load;
    if (!LoadCheckpoint(options.journal_path, &load, error)) return false;
    if (load.header.campaign_seed != header.campaign_seed ||
        load.header.runs != header.runs ||
        load.header.distinct_scenarios != header.distinct_scenarios ||
        load.header.workload_digest != header.workload_digest) {
      if (error != nullptr) {
        *error = options.journal_path +
                 ": journal belongs to a different campaign (seed/runs/"
                 "scenarios/workload mismatch); refusing to resume";
      }
      return false;
    }
    for (std::size_t r = 0; r < header.runs; ++r) {
      if (load.samples[r].has_value()) {
        out->samples[r] = *load.samples[r];
        have[r] = 1;
      }
    }
    out->resumed_runs = load.completed;
    out->torn_lines = load.torn_lines;
    if (!journal.OpenExisting(options.journal_path, options.fsync_interval,
                              error)) {
      return false;
    }
  } else {
    if (!journal.OpenNew(options.journal_path, header,
                         options.fsync_interval, error)) {
      return false;
    }
  }

  const std::vector<Chunk> chunks = build_chunks(have);
  BatchArenas arenas(platform_config, lanes, pool.size());

  // Appends are serialized under a mutex; the abort hook fires under the
  // same mutex, so the journal holds EXACTLY abort_after_appends new
  // records when it triggers — even when the abort lands mid-batch (the
  // rest of that batch's lanes are simply not appended).
  std::mutex journal_mutex;
  std::atomic<bool> stop{false};
  std::size_t appended = 0;
  bool append_failed = false;
  std::string append_error;

  ExecuteChunks(
      pool, arenas, chunks, seed_of,
      [&]() { return !stop.load(std::memory_order_relaxed); },
      [&](std::size_t r, RunSample s) {
        std::lock_guard<std::mutex> lock(journal_mutex);
        if (stop.load(std::memory_order_relaxed) || append_failed) return;
        if (options.abort_after_appends != 0 &&
            appended >= options.abort_after_appends) {
          stop.store(true, std::memory_order_relaxed);
          return;
        }
        if (!journal.Append(r, s, &append_error)) {
          append_failed = true;
          return;
        }
        ++appended;
        out->samples[r] = s;
        have[r] = 1;
      });

  if (append_failed) {
    if (error != nullptr) *error = append_error;
    return false;
  }
  if (!journal.Close(error)) return false;
  out->completed =
      std::all_of(have.begin(), have.end(), [](char h) { return h != 0; });
  return true;
}

}  // namespace

std::vector<RunSample> RunFixedTraceCampaignBatched(
    const sim::PlatformConfig& platform_config, const trace::Trace& t,
    std::size_t runs, std::uint64_t master_seed, std::size_t lanes,
    std::size_t jobs) {
  SPTA_REQUIRE(runs >= 1);
  lanes = ClampLanes(lanes);
  const sim::batch::PreparedTrace prepared =
      sim::batch::PrepareTrace(t, platform_config);
  const auto chunks = BuildFixedChunks(
      prepared, static_cast<std::uint32_t>(t.path_signature), runs, lanes,
      nullptr);
  std::vector<RunSample> samples(runs);
  ThreadPool pool(jobs);
  BatchArenas arenas(platform_config, lanes, pool.size());
  SPTA_OBS_SPAN_ARG("campaign", "fixed_trace_campaign_batched", "runs",
                    runs);
  ExecuteChunks(
      pool, arenas, chunks,
      [&](std::size_t r) { return FixedTraceRunSeed(master_seed, r); },
      kAlwaysGo,
      [&](std::size_t r, RunSample s) { samples[r] = std::move(s); });
  return samples;
}

std::vector<RunSample> RunTvcaCampaignBatched(
    const sim::PlatformConfig& platform_config, const apps::TvcaApp& app,
    const CampaignConfig& config, std::size_t lanes, std::size_t jobs) {
  SPTA_REQUIRE(config.runs >= 1);
  if (config.distinct_scenarios == 0) {
    // Fresh inputs: every run's trace is distinct, so lockstep batching
    // has nothing to share. Thread-level parallelism still applies.
    return RunTvcaCampaignParallel(platform_config, app, config, jobs);
  }
  lanes = ClampLanes(lanes);
  const TvcaFrames frames(app, config);
  const std::vector<apps::TvcaFrame>& suite = frames.suite();
  std::vector<sim::batch::PreparedTrace> prepared_suite;
  prepared_suite.reserve(suite.size());
  for (const apps::TvcaFrame& frame : suite) {
    prepared_suite.push_back(
        sim::batch::PrepareTrace(frame.trace, platform_config));
  }
  const auto chunks =
      BuildTvcaChunks(config, suite, prepared_suite, lanes, nullptr);
  std::vector<RunSample> samples(config.runs);
  ThreadPool pool(jobs);
  BatchArenas arenas(platform_config, lanes, pool.size());
  SPTA_OBS_SPAN_ARG("campaign", "tvca_campaign_batched", "runs",
                    config.runs);
  ExecuteChunks(
      pool, arenas, chunks,
      [&](std::size_t r) { return TvcaRunSeed(config, r); }, kAlwaysGo,
      [&](std::size_t r, RunSample s) { samples[r] = std::move(s); });
  return samples;
}

bool RunFixedTraceCampaignBatchedCheckpointed(
    const sim::PlatformConfig& platform_config, const trace::Trace& t,
    std::size_t runs, std::uint64_t master_seed, std::size_t lanes,
    std::size_t jobs, const CheckpointOptions& options,
    CheckpointedCampaignResult* out, std::string* error) {
  SPTA_REQUIRE(runs >= 1);
  lanes = ClampLanes(lanes);
  CheckpointHeader header;
  header.campaign_seed = master_seed;
  header.runs = runs;
  header.distinct_scenarios = 0;
  header.workload_digest = FixedTraceWorkloadDigest(t);

  const sim::batch::PreparedTrace prepared =
      sim::batch::PrepareTrace(t, platform_config);
  ThreadPool pool(jobs);
  return RunChunkedCheckpointed(
      platform_config, lanes, pool, header, options,
      [&](const std::vector<char>& have) {
        return BuildFixedChunks(
            prepared, static_cast<std::uint32_t>(t.path_signature), runs,
            lanes, &have);
      },
      [&](std::size_t r) { return FixedTraceRunSeed(master_seed, r); }, out,
      error);
}

bool RunTvcaCampaignBatchedCheckpointed(
    const sim::PlatformConfig& platform_config, const apps::TvcaApp& app,
    const CampaignConfig& config, std::size_t lanes, std::size_t jobs,
    const CheckpointOptions& options, CheckpointedCampaignResult* out,
    std::string* error) {
  SPTA_REQUIRE(config.runs >= 1);
  if (config.distinct_scenarios == 0) {
    // Fresh inputs: delegate to the serial checkpointed runner (same
    // journal format; batching has nothing to share).
    return RunTvcaCampaignCheckpointed(platform_config, app, config, jobs,
                                       options, out, error);
  }
  lanes = ClampLanes(lanes);
  CheckpointHeader header;
  header.campaign_seed = config.master_seed;
  header.runs = config.runs;
  header.distinct_scenarios = config.distinct_scenarios;
  header.workload_digest = TvcaWorkloadDigest();

  const TvcaFrames frames(app, config);
  const std::vector<apps::TvcaFrame>& suite = frames.suite();
  std::vector<sim::batch::PreparedTrace> prepared_suite;
  prepared_suite.reserve(suite.size());
  for (const apps::TvcaFrame& frame : suite) {
    prepared_suite.push_back(
        sim::batch::PrepareTrace(frame.trace, platform_config));
  }
  ThreadPool pool(jobs);
  return RunChunkedCheckpointed(
      platform_config, lanes, pool, header, options,
      [&](const std::vector<char>& have) {
        return BuildTvcaChunks(config, suite, prepared_suite, lanes, &have);
      },
      [&](std::size_t r) { return TvcaRunSeed(config, r); }, out, error);
}

}  // namespace spta::analysis
