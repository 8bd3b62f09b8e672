#include "analysis/batch_campaign.hpp"

#include <algorithm>
#include <functional>
#include <memory>

#include "analysis/parallel_campaign.hpp"
#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "obs/trace.hpp"
#include "sim/batch/batch_platform.hpp"
#include "sim/batch/prepared_trace.hpp"
#include "sim/batch/simd.hpp"

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
      : config_(config), lanes_(lanes), arenas_(workers) {
    // The SIMD scan dispatch resolves lazily on first use; resolve it here,
    // before the pool starts, so workers only read it (simd.hpp).
    (void)sim::batch::ActiveScanIsa();
  }

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

/// Simulates one chunk on the calling worker's batch kernel and emits
/// each lane's sample under its absolute run index.
void RunChunk(BatchArenas& arenas, const Chunk& chunk,
              const std::function<Seed(std::size_t)>& seed_of,
              const EmitSample& emit) {
  SPTA_OBS_SPAN_ARG("campaign", "run_batch", "lanes", chunk.runs.size());
  std::vector<Seed> seeds;
  seeds.reserve(chunk.runs.size());
  for (const std::size_t r : chunk.runs) seeds.push_back(seed_of(r));
  auto results = arenas.ForCurrentWorker().RunBatch(*chunk.prepared, seeds);
  for (std::size_t i = 0; i < chunk.runs.size(); ++i) {
    emit(chunk.runs[i], ToSample(chunk, results[i]));
  }
}

/// Runs every chunk on the pool.
void ExecuteChunks(ThreadPool& pool, BatchArenas& arenas,
                   const std::vector<Chunk>& chunks,
                   const std::function<Seed(std::size_t)>& seed_of,
                   const EmitSample& emit) {
  ParallelFor(pool, chunks.size(), [&](std::size_t c) {
    RunChunk(arenas, chunks[c], seed_of, emit);
  });
}

/// One PreparedTrace per suite frame, in suite order.
std::vector<sim::batch::PreparedTrace> PrepareSuite(
    const std::vector<apps::TvcaFrame>& suite,
    const sim::PlatformConfig& platform_config) {
  std::vector<sim::batch::PreparedTrace> prepared_suite;
  prepared_suite.reserve(suite.size());
  for (const apps::TvcaFrame& frame : suite) {
    prepared_suite.push_back(
        sim::batch::PrepareTrace(frame.trace, platform_config));
  }
  return prepared_suite;
}

/// Journaled execution of both batched checkpointed runners: the
/// skeleton's work units are the chunks `build_chunks` makes over the runs
/// the journal is missing.
bool RunChunkedCheckpointed(
    const sim::PlatformConfig& platform_config, std::size_t lanes,
    std::size_t jobs, const CheckpointHeader& header,
    const CheckpointOptions& options,
    const std::function<std::vector<Chunk>(const std::vector<char>&)>&
        build_chunks,
    const std::function<Seed(std::size_t)>& seed_of,
    CheckpointedCampaignResult* out, std::string* error) {
  ThreadPool pool(jobs);
  BatchArenas arenas(platform_config, lanes, pool.size());
  std::vector<Chunk> chunks;
  const CampaignWork work{
      [&](const std::vector<char>& have) {
        chunks = build_chunks(have);
        return chunks.size();
      },
      [&](std::size_t c, const EmitSample& emit) {
        RunChunk(arenas, chunks[c], seed_of, emit);
      }};
  return RunCheckpointedCampaign(header, pool, options, work, out, error);
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
  const std::vector<sim::batch::PreparedTrace> prepared_suite =
      PrepareSuite(suite, platform_config);
  const auto chunks =
      BuildTvcaChunks(config, suite, prepared_suite, lanes, nullptr);
  std::vector<RunSample> samples(config.runs);
  ThreadPool pool(jobs);
  BatchArenas arenas(platform_config, lanes, pool.size());
  SPTA_OBS_SPAN_ARG("campaign", "tvca_campaign_batched", "runs",
                    config.runs);
  ExecuteChunks(
      pool, arenas, chunks,
      [&](std::size_t r) { return TvcaRunSeed(config, r); },
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
  return RunChunkedCheckpointed(
      platform_config, lanes, jobs, header, options,
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
  const std::vector<sim::batch::PreparedTrace> prepared_suite =
      PrepareSuite(suite, platform_config);
  return RunChunkedCheckpointed(
      platform_config, lanes, jobs, header, options,
      [&](const std::vector<char>& have) {
        return BuildTvcaChunks(config, suite, prepared_suite, lanes, &have);
      },
      [&](std::size_t r) { return TvcaRunSeed(config, r); }, out, error);
}

}  // namespace spta::analysis
