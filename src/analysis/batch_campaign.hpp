// Batched measurement campaigns over the lockstep multi-seed kernel.
//
// These runners drive sim::batch::BatchPlatform: runs that share a trace
// are grouped into batches of up to `lanes` seeds and simulated in one
// lockstep pass, multiplying the per-trace preprocessing and the cache-hot
// event stream across seeds. Batching COMPOSES with thread parallelism —
// the batch is the work unit a pool worker claims — and with the
// checkpoint/resume journal: the batched checkpointed runners hand their
// batches to the same journaling skeleton as the serial runners
// (RunCheckpointedCampaign), so a journal started serially can be
// finished batched and vice versa.
//
// Determinism contract (inherited from campaign.hpp's seed derivation and
// BatchPlatform's lane bit-identity): the sample vector is BIT-IDENTICAL
// to the serial runner's for any lane count, job count, batch boundary
// (ragged tails included) and interruption pattern.
//
// TVCA batching note: with a fixed scenario suite (distinct_scenarios > 0)
// the runs of one scenario share a frame trace and batch within that
// group. A fresh-input campaign (distinct_scenarios == 0) has one distinct
// trace per run — nothing to batch — so RunTvcaCampaignBatched delegates
// to RunTvcaCampaignParallel, preserving sample equality.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/campaign.hpp"
#include "analysis/checkpoint.hpp"
#include "apps/tvca.hpp"
#include "sim/config.hpp"
#include "trace/record.hpp"

namespace spta::analysis {

/// Default lane count of the batched runners (two AVX2 scan groups).
inline constexpr std::size_t kDefaultBatchLanes = 8;

/// Batched equivalent of RunFixedTraceCampaign / ...Parallel. `lanes` is
/// clamped to [1, BatchPlatform::kMaxLanes]; `jobs` threads each own one
/// reusable batch kernel (0 = DefaultJobs()).
std::vector<RunSample> RunFixedTraceCampaignBatched(
    const sim::PlatformConfig& platform_config, const trace::Trace& t,
    std::size_t runs, std::uint64_t master_seed,
    std::size_t lanes = kDefaultBatchLanes, std::size_t jobs = 1);

/// Batched equivalent of RunTvcaCampaign / ...Parallel (see the TVCA
/// batching note above).
std::vector<RunSample> RunTvcaCampaignBatched(
    const sim::PlatformConfig& platform_config, const apps::TvcaApp& app,
    const CampaignConfig& config, std::size_t lanes = kDefaultBatchLanes,
    std::size_t jobs = 1);

/// Batched + journaled fixed-trace campaign. Journal format and header are
/// identical to RunFixedTraceCampaignCheckpointed's — resumable across
/// serial/batched runner switches. Only missing runs are re-executed,
/// re-grouped into fresh batches.
bool RunFixedTraceCampaignBatchedCheckpointed(
    const sim::PlatformConfig& platform_config, const trace::Trace& t,
    std::size_t runs, std::uint64_t master_seed, std::size_t lanes,
    std::size_t jobs, const CheckpointOptions& options,
    CheckpointedCampaignResult* out, std::string* error);

/// Batched + journaled TVCA campaign (same serial-interop guarantee).
bool RunTvcaCampaignBatchedCheckpointed(
    const sim::PlatformConfig& platform_config, const apps::TvcaApp& app,
    const CampaignConfig& config, std::size_t lanes, std::size_t jobs,
    const CheckpointOptions& options, CheckpointedCampaignResult* out,
    std::string* error);

}  // namespace spta::analysis
