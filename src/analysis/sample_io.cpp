#include "analysis/sample_io.hpp"

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

bool ParseHex64(const std::string& s, std::uint64_t* out) {
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
std::string Trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) {
    --e;
  }
  return s.substr(b, e - b);
}

bool ParseDouble(const std::string& s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end != s.c_str() && *end == '\0';
}

std::string LineError(std::size_t line_no, const std::string& what) {
  return "samples CSV line " + std::to_string(line_no) + ": " + what;
}

}  // namespace

bool TryReadSamplesCsvWithMeta(std::istream& in,
                               std::vector<mbpta::PathObservation>* out,
                               CsvMeta* meta, std::string* error) {
  out->clear();
  if (meta != nullptr) *meta = CsvMeta{};
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') {
      // Metadata rides in comments so legacy readers skip it; a malformed
      // metadata value is a hard error (it means the annotations were
      // themselves damaged), a plain comment is ignored.
      if (trimmed.rfind(kDigestComment, 0) == 0) {
        std::uint64_t digest = 0;
        const std::string value =
            Trim(trimmed.substr(sizeof(kDigestComment) - 1));
        if (!ParseHex64(value, &digest)) {
          *error = LineError(line_no, "bad spta-digest '" + value + "'");
          out->clear();
          return false;
        }
        if (meta != nullptr) meta->digest = digest;
      } else if (trimmed.rfind(kFaultsComment, 0) == 0) {
        const std::string value =
            Trim(trimmed.substr(sizeof(kFaultsComment) - 1));
        double faults = 0.0;
        if (!ParseDouble(value, &faults) || !std::isfinite(faults) ||
            faults < 0.0) {
          *error = LineError(line_no, "bad spta-faults '" + value + "'");
          out->clear();
          return false;
        }
        if (meta != nullptr) meta->faults = static_cast<std::uint64_t>(faults);
      }
      continue;
    }
    const auto comma = trimmed.find(',');
    const std::string first =
        Trim(comma == std::string::npos ? trimmed : trimmed.substr(0, comma));
    double cycles = 0.0;
    if (!ParseDouble(first, &cycles)) {
      // Tolerate a header line (non-numeric first field).
      if (out->empty()) continue;
      *error = LineError(line_no, "bad number '" + first + "'");
      out->clear();
      return false;
    }
    // Execution times feed straight into the EVT fit; a NaN would quietly
    // corrupt every statistic downstream, so reject it here with context.
    if (!std::isfinite(cycles)) {
      *error = LineError(line_no,
                         "non-finite execution time '" + first + "'");
      out->clear();
      return false;
    }
    if (cycles < 0.0) {
      *error = LineError(line_no,
                         "negative execution time '" + first + "'");
      out->clear();
      return false;
    }
    mbpta::PathObservation obs;
    obs.time = cycles;
    if (comma != std::string::npos) {
      const std::string second = Trim(trimmed.substr(comma + 1));
      if (!second.empty()) {
        double path = 0.0;
        if (!ParseDouble(second, &path) || !std::isfinite(path)) {
          *error = LineError(line_no, "bad path id '" + second + "'");
          out->clear();
          return false;
        }
        if (path < 0.0) {
          *error = LineError(line_no, "negative path id");
          out->clear();
          return false;
        }
        obs.path_id = static_cast<std::uint64_t>(path);
      }
    }
    out->push_back(obs);
  }
  return true;
}

bool TryReadSamplesCsv(std::istream& in,
                       std::vector<mbpta::PathObservation>* out,
                       std::string* error) {
  return TryReadSamplesCsvWithMeta(in, out, nullptr, error);
}

std::vector<mbpta::PathObservation> ReadSamplesCsv(std::istream& in) {
  std::vector<mbpta::PathObservation> out;
  std::string error;
  SPTA_REQUIRE_MSG(TryReadSamplesCsv(in, &out, &error), error);
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
