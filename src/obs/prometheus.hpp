// Prometheus text exposition format (version 0.0.4) renderer.
//
// A tiny append-only builder: each metric is declared once with # HELP and
// # TYPE lines, then one or more samples follow.
//
// The format contract (metric names, types, label sets) is documented in
// docs/OBSERVABILITY.md and pinned by tests; scrapers can rely on it.
#pragma once

#include <string>
#include <string_view>

namespace spta::obs {

class PromText {
 public:
  /// Declares a metric: emits `# HELP name help` and `# TYPE name type`.
  /// Call once per metric name, before its samples.
  void Declare(std::string_view name, std::string_view type,
               std::string_view help);

  /// Emits `name value`.
  void Sample(std::string_view name, double value);

  /// Emits `name{labels} value`; `labels` is the raw inner text, e.g.
  /// `verb="PING"` or `cache="hit"`.
  void Sample(std::string_view name, std::string_view labels, double value);

  const std::string& str() const { return out_; }

 private:
  void AppendNumber(double value);
  std::string out_;
};

}  // namespace spta::obs
