#include "mbpta/per_path.hpp"

#include <algorithm>
#include <map>

#include "common/assert.hpp"
#include "stats/descriptive.hpp"

namespace spta::mbpta {

double PerPathResult::EnvelopeAt(double p) const {
  SPTA_REQUIRE(analyzed_count() >= 1);
  double envelope = 0.0;
  for (const auto& path : paths) {
    if (path.analyzed && path.result.curve.has_value()) {
      envelope = std::max(envelope,
                          path.result.curve->QuantileForExceedance(p));
    }
    // Every path's observed maximum is a hard lower bound on any defensible
    // program WCET estimate.
    envelope = std::max(envelope, path.high_watermark);
  }
  return envelope;
}

std::size_t PerPathResult::analyzed_count() const {
  return static_cast<std::size_t>(
      std::count_if(paths.begin(), paths.end(),
                    [](const PathAnalysis& p) { return p.analyzed; }));
}

PerPathResult AnalyzePerPath(std::span<const PathObservation> observations,
                             const PerPathOptions& options) {
  SPTA_REQUIRE(!observations.empty());
  std::map<std::uint64_t, std::vector<double>> by_path;
  for (const auto& obs : observations) {
    by_path[obs.path_id].push_back(obs.time);
  }
  PerPathResult result;
  result.total_samples = observations.size();
  for (auto& [path_id, times] : by_path) {
    PathAnalysis pa;
    pa.path_id = path_id;
    pa.samples = times.size();
    pa.high_watermark = stats::Max(times);
    const std::size_t required =
        std::max(options.min_samples_per_path, options.mbpta.min_blocks);
    if (times.size() >= required && stats::Max(times) > stats::Min(times)) {
      pa.result = AnalyzeSample(times, options.mbpta);
      pa.analyzed = pa.result.curve.has_value();
    }
    result.paths.push_back(std::move(pa));
  }
  return result;
}

}  // namespace spta::mbpta
