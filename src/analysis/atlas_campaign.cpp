#include "analysis/atlas_campaign.hpp"

#include <memory>
#include <vector>

#include "analysis/parallel_campaign.hpp"
#include "atlas/state_digest.hpp"
#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "obs/atlas_counters.hpp"
#include "obs/trace.hpp"
#include "sim/platform.hpp"

namespace spta::analysis {
namespace {

/// Per-worker arenas: the shared WorkerArenas (platform + frame scratch)
/// plus one KernelStore per pool worker. The kernel store is safe to
/// reuse because entry-state digests embed per-run seeds, so a stale
/// entry can never match a different run's state — sharing the store
/// across runs only adds hits, never wrong ones.
class AtlasArenas {
 public:
  AtlasArenas(const sim::PlatformConfig& config, std::size_t workers)
      : workers_(config, workers), stores_(workers), memo_stats_(workers) {}

  sim::Platform& Platform() { return workers_.Platform(); }
  apps::FrameScratch& Frame() { return workers_.Frame(); }

  atlas::KernelStore& Store() {
    auto& store = stores_[WorkerIndex()];
    if (store == nullptr) store = std::make_unique<atlas::KernelStore>();
    return *store;
  }

  atlas::MemoRunStats& MemoStats() { return memo_stats_[WorkerIndex()]; }

  /// Folds every worker's counters into `out` (and the obs globals).
  /// Call after the pool has quiesced.
  void Aggregate(AtlasCampaignStats* out) {
    AtlasCampaignStats total;
    for (std::size_t w = 0; w < memo_stats_.size(); ++w) {
      total.memo.Accumulate(memo_stats_[w]);
      if (stores_[w] != nullptr) {
        const atlas::KernelStore::Stats s = stores_[w]->stats();
        total.store_inserts += s.inserts;
        total.store_clears += s.clears;
        total.store_collisions += s.collisions;
      }
    }
    obs::AddAtlasMemoCounters(total.memo.hits, total.memo.misses,
                              total.memo.bypasses, total.store_inserts,
                              total.memo.fast_forwarded_records);
    if (out != nullptr) *out = total;
  }

 private:
  std::size_t WorkerIndex() const {
    const std::size_t w = ThreadPool::CurrentWorkerIndex();
    SPTA_CHECK_MSG(w != ThreadPool::kNotAWorker && w < stores_.size(),
                   "campaign body must run on a pool worker");
    return w;
  }

  WorkerArenas workers_;
  std::vector<std::unique_ptr<atlas::KernelStore>> stores_;
  std::vector<atlas::MemoRunStats> memo_stats_;
};

/// One memoised measurement of `t` on the calling worker's arenas.
RunSample MeasureMemoized(AtlasArenas& arenas, const trace::Trace& t,
                          const atlas::Segmentation& segmentation,
                          std::uint32_t path_id, Seed run_seed,
                          const DualHash& config_digest) {
  SPTA_OBS_SPAN("sim", "simulate");
  RunSample s;
  s.detail = atlas::RunMemoized(arenas.Platform(), t, segmentation, run_seed,
                                config_digest, &arenas.Store(),
                                &arenas.MemoStats());
  s.cycles = static_cast<double>(s.detail.cycles);
  s.path_id = path_id;
  return s;
}

/// A TVCA campaign's frames with each fixed-suite frame mined once;
/// fresh-input frames are mined per run (memoisation then only pays
/// within a run).
class MinedTvcaFrames {
 public:
  MinedTvcaFrames(const apps::TvcaApp& app, const CampaignConfig& config,
                  const DualHash& config_digest)
      : config_(config), config_digest_(config_digest), frames_(app, config) {
    for (const apps::TvcaFrame& f : frames_.suite()) {
      suite_segments_.push_back(atlas::MineKernels(f.trace));
    }
  }

  RunSample Measure(AtlasArenas& arenas, std::size_t r) const {
    const apps::TvcaFrame& frame = frames_.ForRun(r, arenas.Frame());
    const Seed run_seed = TvcaRunSeed(config_, r);
    if (!suite_segments_.empty()) {
      return MeasureMemoized(
          arenas, frame.trace,
          suite_segments_[r % config_.distinct_scenarios], frame.path_id,
          run_seed, config_digest_);
    }
    return MeasureMemoized(arenas, frame.trace, atlas::MineKernels(frame.trace),
                           frame.path_id, run_seed, config_digest_);
  }

 private:
  const CampaignConfig& config_;
  const DualHash& config_digest_;
  TvcaFrames frames_;
  std::vector<atlas::Segmentation> suite_segments_;
};

}  // namespace

std::vector<RunSample> RunFixedTraceCampaignMemoized(
    const sim::PlatformConfig& platform_config, const trace::Trace& t,
    std::size_t runs, std::uint64_t master_seed, std::size_t jobs,
    AtlasCampaignStats* stats) {
  SPTA_REQUIRE(runs >= 1);
  std::vector<RunSample> samples(runs);
  const atlas::Segmentation segmentation = atlas::MineKernels(t);
  const DualHash config_digest = atlas::ConfigDigest(platform_config);

  ThreadPool pool(jobs);
  AtlasArenas arenas(platform_config, pool.size());
  SPTA_OBS_SPAN_ARG("campaign", "fixed_trace_campaign_memoized", "runs",
                    runs);
  ParallelFor(pool, runs, [&](std::size_t r) {
    SPTA_OBS_SPAN_ARG("campaign", "run", "run", r);
    samples[r] = MeasureMemoized(arenas, t, segmentation,
                                 static_cast<std::uint32_t>(t.path_signature),
                                 FixedTraceRunSeed(master_seed, r),
                                 config_digest);
  });
  arenas.Aggregate(stats);
  return samples;
}

std::vector<RunSample> RunTvcaCampaignMemoized(
    const sim::PlatformConfig& platform_config, const apps::TvcaApp& app,
    const CampaignConfig& config, std::size_t jobs,
    AtlasCampaignStats* stats) {
  SPTA_REQUIRE(config.runs >= 1);
  std::vector<RunSample> samples(config.runs);
  const DualHash config_digest = atlas::ConfigDigest(platform_config);
  const MinedTvcaFrames frames(app, config, config_digest);

  ThreadPool pool(jobs);
  AtlasArenas arenas(platform_config, pool.size());
  SPTA_OBS_SPAN_ARG("campaign", "tvca_campaign_memoized", "runs",
                    config.runs);
  ParallelFor(pool, config.runs, [&](std::size_t r) {
    SPTA_OBS_SPAN_ARG("campaign", "run", "run", r);
    samples[r] = frames.Measure(arenas, r);
  });
  arenas.Aggregate(stats);
  return samples;
}

bool RunFixedTraceCampaignMemoizedCheckpointed(
    const sim::PlatformConfig& platform_config, const trace::Trace& t,
    std::size_t runs, std::uint64_t master_seed, std::size_t jobs,
    const CheckpointOptions& options, CheckpointedCampaignResult* out,
    std::string* error, AtlasCampaignStats* stats) {
  SPTA_REQUIRE(runs >= 1);
  CheckpointHeader header;
  header.campaign_seed = master_seed;
  header.runs = runs;
  header.distinct_scenarios = 0;
  header.workload_digest = FixedTraceWorkloadDigest(t);

  const atlas::Segmentation segmentation = atlas::MineKernels(t);
  const DualHash config_digest = atlas::ConfigDigest(platform_config);
  ThreadPool pool(jobs);
  AtlasArenas arenas(platform_config, pool.size());
  auto measure = [&](std::size_t r) {
    return MeasureMemoized(arenas, t, segmentation,
                           static_cast<std::uint32_t>(t.path_signature),
                           FixedTraceRunSeed(master_seed, r), config_digest);
  };
  const bool ok =
      RunCheckpointedCampaign(header, pool, options, measure, out, error);
  arenas.Aggregate(stats);
  return ok;
}

bool RunTvcaCampaignMemoizedCheckpointed(
    const sim::PlatformConfig& platform_config, const apps::TvcaApp& app,
    const CampaignConfig& config, std::size_t jobs,
    const CheckpointOptions& options, CheckpointedCampaignResult* out,
    std::string* error, AtlasCampaignStats* stats) {
  SPTA_REQUIRE(config.runs >= 1);
  CheckpointHeader header;
  header.campaign_seed = config.master_seed;
  header.runs = config.runs;
  header.distinct_scenarios = config.distinct_scenarios;
  header.workload_digest = TvcaWorkloadDigest();

  const DualHash config_digest = atlas::ConfigDigest(platform_config);
  const MinedTvcaFrames frames(app, config, config_digest);
  ThreadPool pool(jobs);
  AtlasArenas arenas(platform_config, pool.size());
  auto measure = [&](std::size_t r) { return frames.Measure(arenas, r); };
  const bool ok =
      RunCheckpointedCampaign(header, pool, options, measure, out, error);
  arenas.Aggregate(stats);
  return ok;
}

}  // namespace spta::analysis
