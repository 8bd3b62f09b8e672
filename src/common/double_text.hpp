// Full-precision decimal text of a double, built on <charconv>.
//
// FormatDouble writes exactly the bytes printf("%.17g") writes, so every
// number the toolkit puts on the wire or in an exposition keeps its
// historical spelling, and strtod reads each finite result back
// bit-exactly: the served-equals-batch guarantee of spta_serve rests on
// that round trip.
#pragma once

#include <cstddef>
#include <string>

namespace spta {

/// The longest text FormatDouble writes ("-2.2250738585072014e-308").
inline constexpr std::size_t kDoubleTextMaxLength = 24;

/// Room FormatDouble may address, a little more than it writes.
inline constexpr std::size_t kDoubleTextCapacity = 32;

/// Writes `value` as printf("%.17g") would, without a terminating NUL,
/// into [first, first + kDoubleTextCapacity) and returns one past the last
/// byte written.
char* FormatDouble(double value, char* first);

/// FormatDouble as a string.
std::string DoubleText(double value);

}  // namespace spta
