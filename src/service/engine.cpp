#include "service/engine.hpp"

#include <bit>

#include <algorithm>

#include "common/hash.hpp"
#include "evt/block_maxima.hpp"
#include "mbpta/mbpta.hpp"
#include "mbpta/report.hpp"

namespace spta::service {
namespace {

std::uint64_t DoubleBits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

/// Murmur3-finalizer-based combiner — deliberately different constants,
/// mixing structure and traversal order (at the call sites) than the
/// Mix64/HashCombine chain, so AnalysisKey and AnalysisVerifier fail
/// independently: inputs that collide under one digest have no structural
/// reason to collide under the other. Word-at-a-time like HashCombine, so
/// the warm cache-probe path stays cheap.
std::uint64_t VerifierCombine(std::uint64_t h, std::uint64_t value) {
  value ^= value >> 33;
  value *= 0xff51afd7ed558ccdull;
  value ^= value >> 33;
  value *= 0xc4ceb9fe1a85ec53ull;
  value ^= value >> 33;
  return (h * 0x100000001b3ull) ^ value;  // FNV-style fold of mixed words
}

/// Cached bodies hold the result args on the first line and the rendered
/// report after it — the same split the wire frames use.
std::string EncodeBody(const Args& result, const std::string& report) {
  return result.Encode() + "\n" + report;
}

void DecodeBody(const std::string& body, Args* result, std::string* report) {
  const auto nl = body.find('\n');
  *result = Args::Parse(std::string_view(body).substr(0, nl));
  *report = nl == std::string::npos ? std::string() : body.substr(nl + 1);
}

}  // namespace

AnalysisConfig AnalysisConfig::FromArgs(const Args& args) {
  AnalysisConfig config;
  config.prob = args.GetDouble("prob", config.prob);
  config.block_size =
      static_cast<std::size_t>(args.GetUint("block_size", config.block_size));
  config.min_blocks =
      static_cast<std::size_t>(args.GetUint("min_blocks", config.min_blocks));
  config.alpha = args.GetDouble("alpha", config.alpha);
  config.lags = static_cast<std::size_t>(args.GetUint("lags", config.lags));
  config.require_iid = args.GetBool("require_iid", config.require_iid);
  config.per_path = args.GetBool("per_path", config.per_path);
  config.min_path_samples = static_cast<std::size_t>(
      args.GetUint("min_path_samples", config.min_path_samples));
  return config;
}

std::uint64_t AnalysisKey(std::span<const mbpta::PathObservation> observations,
                          const AnalysisConfig& config) {
  std::uint64_t h = Mix64(0x5054'4153'4552'5645ull);  // "PTASERVE" tag
  h = HashCombine(h, DoubleBits(config.prob));
  h = HashCombine(h, config.block_size);
  h = HashCombine(h, config.min_blocks);
  h = HashCombine(h, DoubleBits(config.alpha));
  h = HashCombine(h, config.lags);
  h = HashCombine(h, config.require_iid ? 1 : 0);
  h = HashCombine(h, config.per_path ? 1 : 0);
  h = HashCombine(h, config.min_path_samples);
  h = HashCombine(h, observations.size());
  for (const auto& obs : observations) {
    h = HashCombine(h, DoubleBits(obs.time));
    h = HashCombine(h, obs.path_id);
  }
  return h;
}

std::uint64_t AnalysisVerifier(
    std::span<const mbpta::PathObservation> observations,
    const AnalysisConfig& config) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV offset basis
  // Samples first, config last — the reverse of AnalysisKey's order.
  for (const auto& obs : observations) {
    h = VerifierCombine(h, obs.path_id);
    h = VerifierCombine(h, DoubleBits(obs.time));
  }
  h = VerifierCombine(h, observations.size());
  h = VerifierCombine(h, config.min_path_samples);
  h = VerifierCombine(h, config.per_path ? 1 : 0);
  h = VerifierCombine(h, config.require_iid ? 1 : 0);
  h = VerifierCombine(h, config.lags);
  h = VerifierCombine(h, DoubleBits(config.alpha));
  h = VerifierCombine(h, config.min_blocks);
  h = VerifierCombine(h, config.block_size);
  h = VerifierCombine(h, DoubleBits(config.prob));
  return h;
}

AnalysisEngine::AnalysisEngine(std::size_t cache_capacity)
    : cache_(cache_capacity) {}

bool AnalysisEngine::Restore(std::uint64_t key, std::uint64_t verifier,
                             std::string body) {
  const Args result =
      Args::Parse(std::string_view(body).substr(0, body.find('\n')));
  if (!result.Has("usable") || !result.Has("sample_size")) return false;
  cache_.Insert(key, verifier,
                std::make_shared<const std::string>(std::move(body)));
  return true;
}

void AnalysisEngine::InsertCached(std::uint64_t key, std::uint64_t verifier,
                                  const ResultCache::Body& body) {
  if (store_ != nullptr) store_->Put(key, verifier, *body);
  cache_.Insert(key, verifier, body);
}

bool AnalysisEngine::Analyze(
    std::span<const mbpta::PathObservation> observations,
    const AnalysisConfig& config, AnalysisOutcome* outcome,
    std::string* error) {
  // Validate what the batch pipeline enforces as SPTA_REQUIRE
  // preconditions: a daemon answers ERR, it does not abort.
  if (config.min_blocks < 1) {
    *error = "min_blocks must be >= 1";
    return false;
  }
  if (observations.size() < config.min_blocks) {
    *error = "sample of " + std::to_string(observations.size()) +
             " is smaller than min_blocks " +
             std::to_string(config.min_blocks);
    return false;
  }
  if (config.block_size > observations.size()) {
    *error = "block_size " + std::to_string(config.block_size) +
             " exceeds sample size " + std::to_string(observations.size());
    return false;
  }
  if (!(config.prob > 0.0 && config.prob < 1.0)) {
    *error = "prob must be in (0, 1)";
    return false;
  }
  if (observations.size() < 4) {
    *error = "sample of " + std::to_string(observations.size()) +
             " is too small for the i.i.d. gate (need >= 4)";
    return false;
  }
  if (config.lags < 1 || config.lags >= observations.size()) {
    *error = "lags " + std::to_string(config.lags) +
             " must be >= 1 and < sample size " +
             std::to_string(observations.size());
    return false;
  }
  // The Gumbel/GEV cross-check and the PPCC diagnostic need at least 3
  // complete blocks; fewer would abort inside the batch pipeline.
  const std::size_t effective_block =
      config.block_size != 0
          ? config.block_size
          : evt::SuggestBlockSize(observations.size(), config.min_blocks);
  if (observations.size() / effective_block < 3) {
    *error = "sample of " + std::to_string(observations.size()) +
             " yields fewer than 3 complete blocks of " +
             std::to_string(effective_block);
    return false;
  }
  if (config.per_path) {
    // AnalyzePerPath runs the full pipeline on every path with at least
    // max(min_path_samples, min_blocks) samples, so that floor must keep
    // each per-path analysis within the preconditions checked above.
    const std::size_t path_floor =
        std::max(config.min_path_samples, config.min_blocks);
    if (path_floor < 4 || path_floor <= config.lags) {
      *error = "per-path floor max(min_path_samples, min_blocks) = " +
               std::to_string(path_floor) +
               " must be >= 4 and > lags " + std::to_string(config.lags);
      return false;
    }
    if (config.block_size != 0
            ? path_floor / config.block_size < 3
            : config.min_blocks < 3) {
      *error = "per-path analysis needs at least 3 complete blocks per "
               "analyzed path; raise min_path_samples/min_blocks or lower "
               "block_size";
      return false;
    }
  }

  outcome->key = AnalysisKey(observations, config);
  const std::uint64_t verifier = AnalysisVerifier(observations, config);
  if (auto body = cache_.Lookup(outcome->key, verifier)) {
    outcome->cache_hit = true;
    DecodeBody(*body, &outcome->result, &outcome->report);
    outcome->body = std::move(body);
    return true;
  }
  outcome->cache_hit = false;

  mbpta::MbptaOptions opts;
  opts.block_size = config.block_size;
  opts.min_blocks = config.min_blocks;
  opts.iid.alpha = config.alpha;
  opts.iid.ljung_box_lags = config.lags;
  opts.require_iid = config.require_iid;

  std::vector<double> times;
  times.reserve(observations.size());
  for (const auto& obs : observations) times.push_back(obs.time);

  const mbpta::MbptaResult result = mbpta::AnalyzeSample(times, opts);

  Args fields;
  fields.SetUint("usable", result.usable ? 1 : 0);
  fields.SetUint("sample_size", result.sample_size);
  fields.SetUint("block_size", result.block_size);
  fields.SetUint("iid_pass", result.iid.Passed() ? 1 : 0);
  fields.SetDouble("prob", config.prob);
  if (result.curve.has_value()) {
    fields.SetDouble("pwcet",
                     result.curve->QuantileForExceedance(config.prob));
  }
  std::string report = mbpta::RenderReport(result, "spta_serve analysis");

  if (config.per_path) {
    mbpta::PerPathOptions ppo;
    ppo.mbpta = opts;
    ppo.min_samples_per_path = config.min_path_samples;
    const mbpta::PerPathResult per_path =
        mbpta::AnalyzePerPath(observations, ppo);
    fields.SetUint("paths", per_path.paths.size());
    fields.SetUint("analyzed_paths", per_path.analyzed_count());
    if (per_path.analyzed_count() >= 1) {
      fields.SetDouble("envelope", per_path.EnvelopeAt(config.prob));
    }
    report += mbpta::RenderReport(per_path);
  }

  outcome->body =
      std::make_shared<const std::string>(EncodeBody(fields, report));
  InsertCached(outcome->key, verifier, outcome->body);
  outcome->result = std::move(fields);
  outcome->report = std::move(report);
  return true;
}

}  // namespace spta::service
