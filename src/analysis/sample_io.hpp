// CSV import/export of measurement samples.
//
// Lets the MBPTA pipeline analyze execution times collected OUTSIDE the
// bundled simulator (a real board, another simulator, a tracing probe):
// the chronovise-style standalone use of the library. The format is one
// observation per line:
//
//   cycles[,path_id]          # header line optional
//
// and the writer emits `cycles,path_id` with a header.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/campaign.hpp"
#include "mbpta/per_path.hpp"

namespace spta::analysis {

/// Writes `samples` as `cycles,path_id` CSV with a header.
void WriteSamplesCsv(std::ostream& out,
                     std::span<const RunSample> samples);

// --- Campaign-integrity metadata -----------------------------------------
// Annotated CSVs carry two comment lines that older readers skip silently
// (they look like ordinary `#` comments):
//
//   # spta-digest=<16 hex digits>   order-sensitive digest of the rows
//   # spta-faults=<n>               faults injected while collecting them
//
// The digest is computed over the *written* representation (truncated
// cycle count, path id), so it survives a write/read round-trip; a
// mismatch on read means rows were altered, reordered, dropped or
// appended after export. A nonzero fault count marks the sample as
// tainted: analysis must refuse to fit a pWCET from it
// (analysis::AnalyzeObservationsGuarded).

/// Order-sensitive 64-bit digest over (uint64 cycles, path_id) rows.
std::uint64_t ObservationsDigest(std::span<const mbpta::PathObservation> obs);
std::uint64_t SamplesDigest(std::span<const RunSample> samples);

/// Metadata recovered from annotated CSV comments.
struct CsvMeta {
  std::optional<std::uint64_t> digest;  ///< absent in legacy files
  std::uint64_t faults = 0;

  bool Tainted() const { return faults > 0; }
};

/// Parses observations from CSV `text` (a whole file or request payload).
/// Accepts blank lines, `#` comments and one optional header: the first
/// other line, when its first field does not begin like a number (an ASCII
/// digit, '+', '-' or '.'). A missing path column means path 0. Returns
/// false, leaves `out` empty and describes the offending line in `error` on
/// a malformed number (any other line whose first field does not parse), a
/// NaN, infinite or negative execution time (values that would otherwise
/// silently poison the EVT fit), or a path id that is malformed, negative
/// or at least 2^64. Numbers follow strtod's grammar. Also extracts the
/// integrity metadata above into `meta` (may be null), rejecting malformed
/// values or a fault count of at least 2^64. It verifies nothing itself:
/// callers compare `meta->digest` against ObservationsDigest(*out)
/// (AnalyzeObservationsGuarded does this when given the meta).
bool TryReadSamplesCsv(std::string_view text,
                       std::vector<mbpta::PathObservation>* out,
                       CsvMeta* meta, std::string* error);

/// TryReadSamplesCsv for trusted input: aborts (precondition) with the
/// reader's message instead of returning false.
std::vector<mbpta::PathObservation> ReadSamplesCsv(std::string_view text);

/// Annotated variant: header, digest + fault-count comments, rows.
void WriteSamplesCsvAnnotated(std::ostream& out,
                              std::span<const RunSample> samples,
                              std::uint64_t faults);

/// Crash-safe annotated export: the whole CSV is staged in a tmp file,
/// fsync'd and renamed over `path` (common/atomic_file.hpp), so a crash
/// mid-export can never leave a truncated file that a later --resume or
/// TryReadSamplesCsv half-ingests. Returns false + `error` on failure.
bool WriteSamplesCsvFileAtomic(const std::string& path,
                               std::span<const RunSample> samples,
                               std::uint64_t faults, std::string* error);

}  // namespace spta::analysis
