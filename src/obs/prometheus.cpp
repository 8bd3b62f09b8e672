#include "obs/prometheus.hpp"

#include <cmath>

#include "common/double_text.hpp"

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
  // Integral values (counters, in practice) print as plain digits, and
  // everything else round-trips exactly.
  char buf[kDoubleTextCapacity];
  out_.append(buf, FormatDouble(value, buf));
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
