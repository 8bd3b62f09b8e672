#include "analysis/sample_io.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>

#include "common/assert.hpp"
#include "common/atomic_file.hpp"
#include "common/hash.hpp"

namespace spta::analysis {
namespace {

constexpr char kDigestComment[] = "# spta-digest=";
constexpr char kFaultsComment[] = "# spta-faults=";

/// The digest of one written row; chained order-sensitively so reordering
/// and truncation change the result.
std::uint64_t CombineRow(std::uint64_t h, std::uint64_t cycles,
                         std::uint64_t path_id) {
  return HashCombine(HashCombine(h, cycles), path_id);
}

bool ParseHex64(std::string_view s, std::uint64_t* out) {
  if (s.empty() || s.size() > 16) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = v;
  return true;
}

std::string Hex64(std::uint64_t v) {
  char buf[17];
  static const char* digits = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    buf[i] = digits[v & 0xf];
    v >>= 4;
  }
  buf[16] = '\0';
  return std::string(buf);
}

// Trims ASCII whitespace from both ends.
std::string_view Trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) {
    --e;
  }
  return s.substr(b, e - b);
}

// The reference field grammar: strtod over the whole field. Like the C
// string it reads, the field ends at an embedded NUL.
bool ParseDoubleStrtod(std::string_view s, double* out) {
  const std::string text(s);
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0';
}

// Accepts exactly the fields ParseDoubleStrtod accepts, with the same
// value. A field of at most 15 ASCII digits is an integer below 2^53, so
// it converts exactly without strtod's copy; every other field goes to
// strtod. Measured samples are usually whole cycle counts, which take the
// first path.
bool ParseDouble(std::string_view s, double* out) {
  if (!s.empty() && s.size() <= 15) {
    std::uint64_t whole = 0;
    std::size_t i = 0;
    for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
      whole = whole * 10 + static_cast<std::uint64_t>(s[i] - '0');
    }
    if (i == s.size()) {
      *out = static_cast<double>(whole);
      return true;
    }
  }
  return ParseDoubleStrtod(s, out);
}

// 2^64: the first double a std::uint64_t cannot hold.
constexpr double kUint64Limit = 0x1p64;

// Whether a field begins like a number (an ASCII digit, a sign or a
// point): such a field is never taken for the header.
bool BeginsLikeNumber(std::string_view field) {
  if (field.empty()) return false;
  const char c = field[0];
  return (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.';
}

std::string LineError(std::size_t line_no, const std::string& what) {
  return "samples CSV line " + std::to_string(line_no) + ": " + what;
}

}  // namespace

bool TryReadSamplesCsv(std::string_view text,
                       std::vector<mbpta::PathObservation>* out,
                       CsvMeta* meta, std::string* error) {
  out->clear();
  if (meta != nullptr) *meta = CsvMeta{};
  std::size_t line_no = 0;
  bool first_row = true;  // The first non-blank, non-comment line is next.
  const auto fail = [&](const std::string& what) {
    *error = LineError(line_no, what);
    out->clear();
    return false;
  };
  // Lines end at '\n'; a final line without one still counts.
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t newline = std::min(text.find('\n', pos), text.size());
    const std::string_view trimmed = Trim(text.substr(pos, newline - pos));
    pos = newline + 1;
    ++line_no;
    if (trimmed.empty() || trimmed[0] == '#') {
      // Metadata rides in comments so legacy readers skip it; a malformed
      // metadata value is a hard error (it means the annotations were
      // themselves damaged), a plain comment is ignored.
      if (trimmed.starts_with(kDigestComment)) {
        std::uint64_t digest = 0;
        const std::string_view value =
            Trim(trimmed.substr(sizeof(kDigestComment) - 1));
        if (!ParseHex64(value, &digest)) {
          return fail("bad spta-digest '" + std::string(value) + "'");
        }
        if (meta != nullptr) meta->digest = digest;
      } else if (trimmed.starts_with(kFaultsComment)) {
        const std::string_view value =
            Trim(trimmed.substr(sizeof(kFaultsComment) - 1));
        double faults = 0.0;
        if (!ParseDouble(value, &faults) || !std::isfinite(faults) ||
            faults < 0.0 || faults >= kUint64Limit) {
          return fail("bad spta-faults '" + std::string(value) + "'");
        }
        if (meta != nullptr) meta->faults = static_cast<std::uint64_t>(faults);
      }
      continue;
    }
    const std::size_t comma = trimmed.find(',');
    const std::string_view first = Trim(trimmed.substr(0, comma));
    const bool header_allowed = first_row;
    first_row = false;
    double cycles = 0.0;
    if (!ParseDouble(first, &cycles)) {
      // The one optional header: the first row, when its first field does
      // not begin like a number.
      if (header_allowed && !BeginsLikeNumber(first)) continue;
      return fail("bad number '" + std::string(first) + "'");
    }
    // Execution times feed straight into the EVT fit; a NaN would quietly
    // corrupt every statistic downstream, so reject it here with context.
    if (!std::isfinite(cycles)) {
      return fail("non-finite execution time '" + std::string(first) + "'");
    }
    if (cycles < 0.0) {
      return fail("negative execution time '" + std::string(first) + "'");
    }
    mbpta::PathObservation obs;
    obs.time = cycles;
    if (comma != std::string_view::npos) {
      const std::string_view second = Trim(trimmed.substr(comma + 1));
      if (!second.empty()) {
        double path = 0.0;
        if (!ParseDouble(second, &path) || !std::isfinite(path) ||
            path >= kUint64Limit) {
          return fail("bad path id '" + std::string(second) + "'");
        }
        if (path < 0.0) return fail("negative path id");
        obs.path_id = static_cast<std::uint64_t>(path);
      }
    }
    out->push_back(obs);
  }
  return true;
}

std::vector<mbpta::PathObservation> ReadSamplesCsv(std::string_view text) {
  std::vector<mbpta::PathObservation> out;
  std::string error;
  SPTA_REQUIRE_MSG(TryReadSamplesCsv(text, &out, nullptr, &error), error);
  return out;
}

void WriteSamplesCsv(std::ostream& out,
                     std::span<const RunSample> samples) {
  out << "cycles,path_id\n";
  for (const auto& s : samples) {
    out << static_cast<std::uint64_t>(s.cycles) << ',' << s.path_id << '\n';
  }
}

std::uint64_t ObservationsDigest(std::span<const mbpta::PathObservation> obs) {
  std::uint64_t h = Mix64(obs.size());
  for (const auto& o : obs) {
    h = CombineRow(h, static_cast<std::uint64_t>(o.time), o.path_id);
  }
  return h;
}

std::uint64_t SamplesDigest(std::span<const RunSample> samples) {
  std::uint64_t h = Mix64(samples.size());
  for (const auto& s : samples) {
    h = CombineRow(h, static_cast<std::uint64_t>(s.cycles), s.path_id);
  }
  return h;
}

void WriteSamplesCsvAnnotated(std::ostream& out,
                              std::span<const RunSample> samples,
                              std::uint64_t faults) {
  out << "cycles,path_id\n";
  out << kDigestComment << Hex64(SamplesDigest(samples)) << '\n';
  out << kFaultsComment << faults << '\n';
  for (const auto& s : samples) {
    out << static_cast<std::uint64_t>(s.cycles) << ',' << s.path_id << '\n';
  }
}

bool WriteSamplesCsvFileAtomic(const std::string& path,
                               std::span<const RunSample> samples,
                               std::uint64_t faults, std::string* error) {
  std::ostringstream body;
  WriteSamplesCsvAnnotated(body, samples, faults);
  return AtomicWriteFile(path, body.str(), error);
}

}  // namespace spta::analysis
