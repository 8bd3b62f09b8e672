// The sample-CSV codec at both ends of the spta_serve wire.
//
// Writer: FormatDouble must write the bytes of printf("%.17g") for every
// double, and EncodeSamplePayload's text must read back bit-exactly.
// Reader: TryReadSamplesCsv parses a short digit field as an integer and
// every other field with strtod; a test-local copy of the line-by-line
// strtod reader it replaced is the oracle. Over a generated corpus both
// must agree on acceptance, error text, every value's bits and the
// metadata. The oracle carries the one intended difference from the
// replaced reader: a path id or fault count of at least 2^64 is rejected
// instead of cast out of range.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/sample_io.hpp"
#include "common/double_text.hpp"
#include "service/client.hpp"

namespace spta {
namespace {

std::uint64_t Bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

double FromBits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string Printf17g(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

// --- Writer -----------------------------------------------------------------

void ExpectPrintfBytes(double v) {
  char buffer[kDoubleTextCapacity];
  const std::string got(buffer, FormatDouble(v, buffer));
  ASSERT_EQ(got, Printf17g(v)) << "bits 0x" << std::hex << Bits(v);
  ASSERT_LE(got.size(), kDoubleTextMaxLength);
  ASSERT_EQ(DoubleText(v), got);
}

TEST(DoubleTextTest, MatchesPrintfOnRandomBitPatterns) {
  std::mt19937_64 rng(20170327);
  for (int i = 0; i < 200000; ++i) ExpectPrintfBytes(FromBits(rng()));
}

TEST(DoubleTextTest, MatchesPrintfOnEdgeValues) {
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double edges[] = {0.0,
                          -0.0,
                          DBL_MAX,
                          -DBL_MAX,
                          DBL_MIN,
                          -DBL_MIN,
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::denorm_min(),
                          kInf,
                          -kInf,
                          std::numeric_limits<double>::quiet_NaN(),
                          -std::numeric_limits<double>::quiet_NaN(),
                          1e17,
                          -1e17,
                          std::nextafter(1e17, 0.0),
                          std::nextafter(1e17, kMax),
                          1e16,
                          99999999999999984.0,
                          0.5,
                          1e-5,
                          1e-4,
                          0.1,
                          1.0 / 3.0,
                          123456789.123456789,
                          0x1p63,
                          0x1p64,
                          18446744073709549568.0};
  for (const double v : edges) ExpectPrintfBytes(v);

  std::mt19937_64 rng(7);
  // Subnormals: a zero exponent field under random mantissas and signs.
  for (int i = 0; i < 20000; ++i) {
    ExpectPrintfBytes(FromBits(rng() & 0x800fffffffffffffull));
  }
  // Integers around 2^53, where doubles stop holding every integer, and
  // around 1e17, where %.17g switches to exponent notation.
  for (const double centre : {0x1p53, 1e17}) {
    double up = centre;
    double down = centre;
    for (int k = 0; k < 2000; ++k) {
      ExpectPrintfBytes(up);
      ExpectPrintfBytes(down);
      ExpectPrintfBytes(-up);
      up = std::nextafter(up, kMax);
      down = std::nextafter(down, 0.0);
    }
  }
  for (std::int64_t k = -2000; k <= 2000; ++k) {
    ExpectPrintfBytes(static_cast<double>((std::int64_t{1} << 53) + k));
  }
  // Integers of every magnitude, and their halves.
  for (int i = 0; i < 50000; ++i) {
    const double v = std::floor(std::ldexp(static_cast<double>(rng() >> 11),
                                           static_cast<int>(rng() % 64) - 53));
    ExpectPrintfBytes(v);
    ExpectPrintfBytes(v + 0.5);
  }
}

// PromText printed integral values below 1e15 with "%.0f" and now uses
// FormatDouble for every finite value: the two must agree there.
TEST(DoubleTextTest, IntegralValuesMatchFixedNotation) {
  std::mt19937_64 rng(11);
  for (int i = 0; i < 20000; ++i) {
    const double v =
        std::floor(std::ldexp(static_cast<double>(rng() >> 11),
                              static_cast<int>(rng() % 50) - 53)) *
        ((rng() & 1) != 0 ? -1.0 : 1.0);
    if (std::fabs(v) >= 1e15) continue;
    char fixed[64];
    std::snprintf(fixed, sizeof fixed, "%.0f", v);
    ASSERT_EQ(DoubleText(v), fixed);
  }
  EXPECT_EQ(DoubleText(-0.0), "-0");
}

TEST(DoubleTextTest, SamplePayloadReadsBackBitExactly) {
  std::mt19937_64 rng(3);
  std::vector<mbpta::PathObservation> observations;
  for (int i = 0; i < 20000; ++i) {
    double time = 0.0;
    switch (i % 4) {
      case 0:  // any finite non-negative double
        do {
          time = FromBits(rng() & 0x7fffffffffffffffull);
        } while (!std::isfinite(time));
        break;
      case 1:  // whole cycle counts
        time = static_cast<double>(rng() % 100000000000000000ull);
        break;
      case 2:  // subnormals
        time = FromBits(rng() & 0x000fffffffffffffull);
        break;
      default:  // TVCA-like fractional times
        time = 10000.0 + static_cast<double>(rng() >> 11) * 0x1p-43;
    }
    const std::uint64_t path_choices[] = {0, 1, 7, rng() % 1000,
                                          rng() >> 11, 999999999999999,
                                          1000000000000000, 1ull << 53};
    observations.push_back({path_choices[rng() % 8], time});
  }
  const std::string payload = service::EncodeSamplePayload(observations);
  std::vector<mbpta::PathObservation> back;
  std::string error;
  ASSERT_TRUE(analysis::TryReadSamplesCsv(payload, &back, nullptr, &error))
      << error;
  ASSERT_EQ(back.size(), observations.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    ASSERT_EQ(Bits(back[i].time), Bits(observations[i].time)) << i;
    ASSERT_EQ(back[i].path_id, observations[i].path_id) << i;
  }

  // Row by row, the bytes are the %.17g text and the decimal path id.
  std::string expected;
  for (const auto& obs : observations) {
    expected += Printf17g(obs.time);
    if (obs.path_id != 0) expected += "," + std::to_string(obs.path_id);
    expected += '\n';
  }
  EXPECT_EQ(payload, expected);
  EXPECT_EQ(service::EncodeSamplePayload({}), "");

  // Rows of the longest time text and path id fill the presized buffer to
  // its last row.
  const double longest = -2.2250738585072014e-308;
  ASSERT_EQ(Printf17g(longest).size(), kDoubleTextMaxLength);
  const std::vector<mbpta::PathObservation> widest(
      1000, {std::numeric_limits<std::uint64_t>::max(), longest});
  std::string widest_expected;
  for (int i = 0; i < 1000; ++i) {
    widest_expected += Printf17g(longest) + ",18446744073709551615\n";
  }
  EXPECT_EQ(service::EncodeSamplePayload(widest), widest_expected);
}

// --- Reader -----------------------------------------------------------------

struct Outcome {
  bool ok = false;
  std::string error;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rows;  // bits, path
  std::optional<std::uint64_t> digest;
  std::uint64_t faults = 0;

  bool operator==(const Outcome&) const = default;
};

std::ostream& operator<<(std::ostream& out, const Outcome& o) {
  out << (o.ok ? "ok" : "rejected: " + o.error) << ", " << o.rows.size()
      << " rows, faults " << o.faults << ", digest "
      << (o.digest ? std::to_string(*o.digest) : "none");
  return out;
}

// A rejection is its error text alone.
Outcome Read(const std::string& text) {
  std::vector<mbpta::PathObservation> obs;
  analysis::CsvMeta meta;
  std::string error;
  Outcome outcome;
  if (!analysis::TryReadSamplesCsv(text, &obs, &meta, &error)) {
    EXPECT_TRUE(obs.empty());
    outcome.error = "[rejected] " + error;
    return outcome;
  }
  outcome.ok = true;
  for (const auto& o : obs) outcome.rows.emplace_back(Bits(o.time), o.path_id);
  outcome.digest = meta.digest;
  outcome.faults = meta.faults;
  return outcome;
}

// The oracle: the reader as it was before the codec, line by line through
// std::getline and strtod, plus the 2^64 limit on path ids and faults.
namespace oracle {

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

Outcome Read(const std::string& text) {
  Outcome outcome;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  const auto fail = [&](const std::string& what) {
    outcome = Outcome{};
    outcome.error =
        "[rejected] samples CSV line " + std::to_string(line_no) + ": " + what;
    return outcome;
  };
  const std::string digest_comment = "# spta-digest=";
  const std::string faults_comment = "# spta-faults=";
  bool first_row = true;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') {
      if (trimmed.rfind(digest_comment, 0) == 0) {
        std::uint64_t digest = 0;
        const std::string value = Trim(trimmed.substr(digest_comment.size()));
        if (!ParseHex64(value, &digest)) {
          return fail("bad spta-digest '" + value + "'");
        }
        outcome.digest = digest;
      } else if (trimmed.rfind(faults_comment, 0) == 0) {
        const std::string value = Trim(trimmed.substr(faults_comment.size()));
        double faults = 0.0;
        if (!ParseDouble(value, &faults) || !std::isfinite(faults) ||
            faults < 0.0 || faults >= 0x1p64) {
          return fail("bad spta-faults '" + value + "'");
        }
        outcome.faults = static_cast<std::uint64_t>(faults);
      }
      continue;
    }
    const auto comma = trimmed.find(',');
    const std::string first =
        Trim(comma == std::string::npos ? trimmed : trimmed.substr(0, comma));
    // Only the first row may be the header, and only when its first field
    // does not begin like a number.
    const bool header_allowed =
        first_row && (first.empty() ||
                      std::string("0123456789+-.").find(first[0]) ==
                          std::string::npos);
    first_row = false;
    double cycles = 0.0;
    if (!ParseDouble(first, &cycles)) {
      if (header_allowed) continue;
      return fail("bad number '" + first + "'");
    }
    if (!std::isfinite(cycles)) {
      return fail("non-finite execution time '" + first + "'");
    }
    if (cycles < 0.0) return fail("negative execution time '" + first + "'");
    std::uint64_t path_id = 0;
    if (comma != std::string::npos) {
      const std::string second = Trim(trimmed.substr(comma + 1));
      if (!second.empty()) {
        double path = 0.0;
        if (!ParseDouble(second, &path) || !std::isfinite(path)) {
          return fail("bad path id '" + second + "'");
        }
        if (path < 0.0) return fail("negative path id");
        if (path >= 0x1p64) return fail("bad path id '" + second + "'");
        path_id = static_cast<std::uint64_t>(path);
      }
    }
    outcome.rows.emplace_back(Bits(cycles), path_id);
  }
  outcome.ok = true;
  return outcome;
}

}  // namespace oracle

// Field spellings that probe both branches of the parse and strtod's grammar.
const std::vector<std::string>& Fields() {
  static const std::vector<std::string> fields = [] {
    std::vector<std::string> f = {
        "0", "1", "7", "007", "0000000000000000000042", "-0", "+0", "+5",
        "-5", "+-5", "--5", "1.5", ".5", "5.", ".", "-.", "+.5", "1e5",
        "1E-5", "1e+5", "1e", "1e+", "e5", "1.5.3", "1 2", "12abc", "abc",
        "cycles", "path_id", "",
        // 15, 16 and 17 digits, around 2^53 and 1e17.
        "123456789012345", "999999999999999", "1000000000000000",
        "1234567890123456", "9007199254740991", "9007199254740992",
        "9007199254740993", "9007199254740995", "99999999999999999",
        "100000000000000000", "1e17", "18014398509481985",
        // Hex floats, which strtod takes.
        "0x1p3", "0X1.8P1", "-0x10", "0x", "0x1p-1080", "0x1.fffffffffffffp1023",
        // Every inf/nan spelling, mixed case.
        "inf", "INF", "Inf", "-inf", "+inf", "infinity", "Infinity",
        "iNfInItY", "-INFINITY", "infin", "infinityx", "nan", "NaN", "NAN",
        "-nan", "+nan", "nan()", "nan(123)", "NAN(abc_1)", "nan(", "nan(#)",
        "nan(1 2)", "nanx",
        // Range edges: subnormals, underflow, overflow.
        "4.9406564584124654e-324", "2.4703282292062327e-324",
        "2.4703282292062328e-324", "2.2250738585072011e-308",
        "2.2250738585072014e-308", "1e-320", "1e-400", "-1e-400", "1e400",
        "-1e400", "1.7976931348623157e308", "1.7976931348623159e308",
        // Path ids around 2^64.
        "1e19", "1e30", "1.8446744073709552e19", "18446744073709549568",
        "18446744073709551615", "18446744073709551616", "-1e30",
        // Embedded NUL: strtod's C string ends there.
        std::string("12\0" "34", 5), std::string("\0", 1)};
    // Long digit strings.
    f.push_back(std::string(400, '9'));
    f.push_back("0." + std::string(400, '0') + "1");
    return f;
  }();
  return fields;
}

const std::vector<std::string>& Pads() {
  static const std::vector<std::string> pads = {"",   " ",  "\t", "\r",
                                                "\v", "\f", " \t \r"};
  return pads;
}

void ExpectSameAsOracle(const std::string& text) {
  const Outcome want = oracle::Read(text);
  const Outcome got = Read(text);
  ASSERT_EQ(got, want) << "input: '" << text << "'";
}

TEST(SampleReaderDifferentialTest, EveryFieldSpellingInEveryPosition) {
  for (const std::string& field : Fields()) {
    for (const std::string& before : Pads()) {
      for (const std::string& after : Pads()) {
        const std::string padded = before + field + after;
        ExpectSameAsOracle(padded + "\n");
        ExpectSameAsOracle("100\n" + padded + "\n");
        ExpectSameAsOracle(padded + ",3\n");
        ExpectSameAsOracle("100," + padded + "\n");
        ExpectSameAsOracle("100," + padded);  // no final newline
        ExpectSameAsOracle("# spta-faults=" + padded + "\n100\n");
        ExpectSameAsOracle("# spta-digest=" + padded + "\n100\n");
      }
    }
  }
}

TEST(SampleReaderDifferentialTest, RoundTripsOfRandomBitPatterns) {
  std::mt19937_64 rng(20170327);
  for (int i = 0; i < 20000; ++i) {
    const std::string a = Printf17g(FromBits(rng()));
    const std::string b = Printf17g(FromBits(rng()));
    ExpectSameAsOracle(a + "\n");
    ExpectSameAsOracle("1," + b + "\n");
  }
  // Whole payloads, as a client encodes them.
  std::string payload;
  for (int i = 0; i < 5000; ++i) {
    payload += Printf17g(FromBits(rng() & 0x7fffffffffffffffull));
    if (i % 3 == 0) payload += "," + std::to_string(rng() % 100);
    payload += '\n';
  }
  ExpectSameAsOracle(payload);
}

TEST(SampleReaderDifferentialTest, GeneratedDocuments) {
  const std::vector<std::string> comments = {
      "#", "# comment", "#,1", "cycles,path_id", "time", "  ",
      "# spta-digest=0123456789abcdef", "# spta-digest=ABCDEF",
      "# spta-digest=00000000000000001", "# spta-digest=",
      "# spta-digest= 00ff ", "# spta-faults=0", "# spta-faults=3",
      "# spta-faults=2.5", "# spta-faults=-1", "# spta-faults=nan",
      "# spta-faults=1e30", "# spta-faults=18446744073709551616",
      "#spta-faults=oops", "  # spta-faults=4"};
  const std::vector<std::string> endings = {"\n", "\r\n", "\n\n"};
  std::mt19937_64 rng(1);
  const auto pick = [&](const std::vector<std::string>& v) {
    return v[rng() % v.size()];
  };
  for (int doc = 0; doc < 30000; ++doc) {
    std::string text;
    const int lines = 1 + static_cast<int>(rng() % 8);
    for (int l = 0; l < lines; ++l) {
      switch (rng() % 6) {
        case 0:
          text += pick(comments);
          break;
        case 1:
          text += pick(Pads()) + pick(Fields()) + pick(Pads());
          break;
        case 2:
          text += Printf17g(FromBits(rng() & 0x7fffffffffffffffull)) + "," +
                  std::to_string(rng() % 9);
          break;
        case 3:
          text += pick(Pads()) + pick(Fields()) + "," + pick(Pads()) +
                  pick(Fields()) + pick(Pads());
          break;
        case 4:
          text += std::to_string(rng() % 100000) + "," + pick(Fields()) +
                  (rng() % 4 == 0 ? "," + pick(Fields()) : "");
          break;
        default:
          text += std::to_string(10000 + rng() % 1000);
      }
      if (l + 1 < lines || rng() % 4 != 0) text += pick(endings);
    }
    ExpectSameAsOracle(text);
  }
  ExpectSameAsOracle("");
  ExpectSameAsOracle("\n");
  ExpectSameAsOracle(std::string("100\n\0\n200\n", 10));
}

// Spot checks that the corpus above reaches each fallback, and the one
// intended change: out-of-range path ids and fault counts are rejected.
TEST(SampleReaderDifferentialTest, FallbacksAndTheNewRejections) {
  EXPECT_EQ(Read("+5\n").rows.at(0).first, Bits(5.0));
  EXPECT_EQ(Read("\v\f7\n").rows.at(0).first, Bits(7.0));
  EXPECT_EQ(Read("0x1p3\n").rows.at(0).first, Bits(8.0));
  EXPECT_EQ(Read("1e-400\n").rows.at(0).first, Bits(0.0));
  EXPECT_EQ(Read("4.9406564584124654e-324\n").rows.at(0).first,
            Bits(0x1p-1074));
  EXPECT_EQ(Read(std::string("12\0" "34\n", 6)).rows.at(0).first, Bits(12.0));
  EXPECT_EQ(Read("9007199254740993\n").rows.at(0).first,
            Bits(9007199254740992.0));
  EXPECT_EQ(Read("1,18446744073709549568\n").rows.at(0).second,
            18446744073709549568ull);

  EXPECT_EQ(Read("100,1e30\n").error,
            "[rejected] samples CSV line 1: bad path id '1e30'");
  EXPECT_EQ(Read("100,18446744073709551616\n").error,
            "[rejected] samples CSV line 1: bad path id "
            "'18446744073709551616'");
  EXPECT_EQ(Read("# spta-faults=18446744073709551616\n100\n").error,
            "[rejected] samples CSV line 1: bad spta-faults "
            "'18446744073709551616'");
  EXPECT_EQ(Read("100,-1e30\n").error,
            "[rejected] samples CSV line 1: negative path id");
}

// One optional header: the first non-blank, non-comment line, and only when
// its first field does not begin like a number. Every other line that does
// not parse is rejected where it stands.
TEST(SampleReaderDifferentialTest, OnlyTheFirstRowMayBeAHeader) {
  const auto expect_rejected = [](const std::string& text,
                                  const std::string& error) {
    ExpectSameAsOracle(text);
    EXPECT_EQ(Read(text).error, "[rejected] samples CSV line " + error)
        << "input: '" << text << "'";
  };
  expect_rejected("abc\ndef\n100\n", "2: bad number 'def'");
  expect_rejected("10O00\n", "1: bad number '10O00'");
  expect_rejected("7\f\n", "1: bad number '7\f'");
  expect_rejected("# note\n\n10O00\n200\n", "3: bad number '10O00'");
  expect_rejected("100\nabc\n", "2: bad number 'abc'");
  expect_rejected("+x\n", "1: bad number '+x'");
  expect_rejected(".\n", "1: bad number '.'");

  for (const std::string header :
       {"cycles,path_id", "cycles", "time,path", "# c\ncycles,path_id"}) {
    const std::string text = header + "\n100,2\n200\n";
    ExpectSameAsOracle(text);
    const Outcome outcome = Read(text);
    ASSERT_TRUE(outcome.ok) << header << ": " << outcome.error;
    ASSERT_EQ(outcome.rows.size(), 2u) << header;
    EXPECT_EQ(outcome.rows[0].first, Bits(100.0));
    EXPECT_EQ(outcome.rows[0].second, 2u);
  }
  // The golden APPEND of `abc`: a lone header, zero samples, no error.
  const Outcome lone = Read("abc");
  EXPECT_TRUE(lone.ok) << lone.error;
  EXPECT_TRUE(lone.rows.empty());
}

}  // namespace
}  // namespace spta
