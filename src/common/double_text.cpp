#include "common/double_text.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>

namespace spta {

char* FormatDouble(double value, char* first) {
  char* const last = first + kDoubleTextCapacity;
  // %.17g prints an integral value below 1e17 as its plain digits, which
  // the integer conversion writes far faster; -0.0 keeps its sign below.
  if (value >= 0.0 && value < 1e17 && !std::signbit(value)) {
    const auto whole = static_cast<std::uint64_t>(value);
    if (static_cast<double>(whole) == value) {
      return std::to_chars(first, last, whole).ptr;
    }
  }
  return std::to_chars(first, last, value, std::chars_format::general, 17)
      .ptr;
}

std::string DoubleText(double value) {
  char buffer[kDoubleTextCapacity];
  return std::string(buffer, FormatDouble(value, buffer));
}

}  // namespace spta
