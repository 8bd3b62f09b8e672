#include "obs/prometheus.hpp"

#include <cmath>
#include <cstdio>

namespace spta::obs {

void PromText::AppendNumber(double value) {
  if (std::isnan(value)) {
    out_ += "NaN";
    return;
  }
  if (std::isinf(value)) {
    out_ += value > 0 ? "+Inf" : "-Inf";
    return;
  }
  // Integral values print without an exponent or trailing zeros (counters
  // are integers in practice); everything else gets shortest-round-trip.
  char buf[64];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", value);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", value);
  }
  out_ += buf;
}

void PromText::Declare(std::string_view name, std::string_view type,
                       std::string_view help) {
  out_ += "# HELP ";
  out_ += name;
  out_ += ' ';
  out_ += help;
  out_ += "\n# TYPE ";
  out_ += name;
  out_ += ' ';
  out_ += type;
  out_ += '\n';
}

void PromText::Sample(std::string_view name, double value) {
  out_ += name;
  out_ += ' ';
  AppendNumber(value);
  out_ += '\n';
}

void PromText::Sample(std::string_view name, std::string_view labels,
                      double value) {
  out_ += name;
  out_ += '{';
  out_ += labels;
  out_ += "} ";
  AppendNumber(value);
  out_ += '\n';
}

}  // namespace spta::obs
