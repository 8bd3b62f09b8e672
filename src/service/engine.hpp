// The servable analysis engine: MBPTA pipeline + content-addressed cache.
//
// One engine instance is shared by every connection and worker thread. An
// analysis request is keyed by a 64-bit digest of the exact sample bits
// and every option that influences the outcome, paired with a second
// independent verifier digest so a key collision is detected rather than
// served (see AnalysisKey/AnalysisVerifier); identical re-submissions
// are answered from the ResultCache without touching the EVT code. The
// rendered result is deterministic (key-sorted args, %.17g numbers), so a
// cached answer is byte-identical to a recomputed one — and the reported
// pWCET quantile is bit-identical to what the batch pipeline
// (mbpta::AnalyzeSample over analysis::RunCampaign samples) produces,
// because both run the same code on the same doubles.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "mbpta/per_path.hpp"
#include "service/persistent_cache.hpp"
#include "service/protocol.hpp"
#include "service/result_cache.hpp"

namespace spta::service {

/// Everything that influences an analysis outcome. Mirrors the spta_cli
/// analyze flags; defaults match the CLI's.
struct AnalysisConfig {
  /// Per-run exceedance probability at which the pWCET is reported.
  double prob = 1e-12;
  std::size_t block_size = 0;  ///< 0 = automatic.
  std::size_t min_blocks = 30;
  double alpha = 0.05;
  std::size_t lags = 20;
  bool require_iid = true;
  bool per_path = false;
  std::size_t min_path_samples = 100;

  /// Decodes the wire form (`prob=`, `block_size=`, ... keys; absent keys
  /// keep their defaults).
  static AnalysisConfig FromArgs(const Args& args);
};

/// Content address of (samples, config): a Mix64/HashCombine digest over
/// the raw IEEE-754 bits of every observation plus every config field.
/// NOT injective — a 64-bit digest over arbitrarily long inputs cannot
/// be — which is why every cache entry also stores the independent
/// AnalysisVerifier digest and a lookup hits only when both match.
std::uint64_t AnalysisKey(std::span<const mbpta::PathObservation> observations,
                          const AnalysisConfig& config);

/// Second, independently constructed digest over the same inputs (a
/// Murmur3-finalizer combiner with a different traversal order). Stored
/// alongside each cache entry
/// so a key collision between distinct requests is detected instead of
/// silently serving another request's pWCET result.
std::uint64_t AnalysisVerifier(
    std::span<const mbpta::PathObservation> observations,
    const AnalysisConfig& config);

struct AnalysisOutcome {
  bool cache_hit = false;
  std::uint64_t key = 0;
  /// Deterministic result fields (usable, pwcet, sample_size, ...).
  Args result;
  /// Human-readable report (mbpta::RenderReport output).
  std::string report;
  /// The cached body `result` and `report` were decoded from: the result
  /// line, '\n', then the report. Shared with the cache, not a copy.
  ResultCache::Body body;
};

class AnalysisEngine {
 public:
  explicit AnalysisEngine(std::size_t cache_capacity = 128);

  /// Runs (or recalls) the analysis. Returns false + diagnostic for
  /// requests the pipeline cannot accept (sample too small, block size
  /// larger than the sample, ...) — never aborts on untrusted input.
  /// Concurrent analyses of one key may both compute and both answer
  /// cache=miss; their results are identical, and the cache keeps one.
  bool Analyze(std::span<const mbpta::PathObservation> observations,
               const AnalysisConfig& config, AnalysisOutcome* outcome,
               std::string* error);

  ResultCache& cache() { return cache_; }
  const ResultCache& cache() const { return cache_; }

  /// Inserts an entry read back from a disk store. False, and nothing
  /// inserted, when `body` is not an analysis result (its first line
  /// lacks `usable=` and `sample_size=`): no request can look it up.
  bool Restore(std::uint64_t key, std::uint64_t verifier, std::string body);

  /// Attaches a disk store: every fresh analysis from now on is also
  /// persisted, so a restart warm-starts from it. The store must outlive
  /// the engine. Pass nullptr to detach. Not a write-back cache — the
  /// in-memory LRU stays authoritative for lookups.
  void AttachStore(PersistentResultCache* store) { store_ = store; }
  PersistentResultCache* store() { return store_; }

 private:
  /// Insert that writes through to the attached store (if any). All cache
  /// fills that should survive a restart go through here.
  void InsertCached(std::uint64_t key, std::uint64_t verifier,
                    const ResultCache::Body& body);

  ResultCache cache_;
  PersistentResultCache* store_ = nullptr;
};

}  // namespace spta::service
