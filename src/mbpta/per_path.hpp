// Per-path MBPTA analysis.
//
// Multi-path programs break identical distribution when paths mix; the
// paper therefore performs "per-path analysis taking the maximum across
// paths": observations are grouped by execution path, each path gets its
// own pWCET model, and the program-level pWCET at probability p is the
// envelope (maximum) across paths.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mbpta/mbpta.hpp"

namespace spta::mbpta {

/// One observation: which path the run took and how long it ran.
struct PathObservation {
  std::uint64_t path_id = 0;
  double time = 0.0;
};

struct PerPathOptions {
  /// Paths with fewer observations than this are not independently
  /// analyzable; they are reported as skipped (their high watermark still
  /// participates in the envelope, conservatively inflated below).
  std::size_t min_samples_per_path = 100;
  MbptaOptions mbpta;
};

/// Analysis of one path.
struct PathAnalysis {
  std::uint64_t path_id = 0;
  std::size_t samples = 0;
  bool analyzed = false;  ///< False when below min_samples_per_path.
  MbptaResult result;     ///< Valid when analyzed.
  double high_watermark = 0.0;
};

struct PerPathResult {
  std::vector<PathAnalysis> paths;
  std::size_t total_samples = 0;

  /// Program-level pWCET at per-run exceedance probability p: the maximum
  /// over analyzed paths' curves, and at least the high watermark of every
  /// path (including skipped ones). Requires at least one analyzed path.
  double EnvelopeAt(double p) const;

  /// Count of paths that could be analyzed.
  std::size_t analyzed_count() const;
};

/// Groups observations by path and analyzes each group.
PerPathResult AnalyzePerPath(std::span<const PathObservation> observations,
                             const PerPathOptions& options = {});

}  // namespace spta::mbpta
