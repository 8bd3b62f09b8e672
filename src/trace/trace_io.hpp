// Trace serialization: a compact, versioned binary format.
//
// Lets a trace be recorded once (an expensive interpretation or an
// externally captured instruction stream) and re-simulated many times
// under different platform configurations — the record/replay workflow of
// trace-driven simulators. The format is little-endian, self-describing
// (magic + version + record count) and validated on load.
#pragma once

#include <istream>
#include <ostream>
#include <string>

#include "trace/record.hpp"

namespace spta::trace {

/// Format identity (bumped on layout changes).
inline constexpr std::uint32_t kTraceMagic = 0x53505441;  // "SPTA"
inline constexpr std::uint32_t kTraceVersion = 1;

/// Writes `t` to `out`. The stream must be binary-clean.
void WriteTrace(std::ostream& out, const Trace& t);

/// Non-aborting reader for untrusted input (CLI-facing file loads; the
/// false-plus-`error` contract of analysis::TryReadSamplesCsv, which reads
/// CSV text from memory where this reads a binary stream):
/// returns false and describes the defect in `error` — bad magic,
/// unsupported version, implausible record count, out-of-range field or
/// truncation — instead of taking the process down. On failure `out` is
/// left in an unspecified (but valid) state.
bool TryReadTrace(std::istream& in, Trace* out, std::string* error);

/// Reads a trace written by WriteTrace. Aborts (precondition) on a bad
/// magic/version or a truncated stream; trusted-input wrapper around
/// TryReadTrace.
Trace ReadTrace(std::istream& in);

/// Convenience file wrappers; abort on I/O failure.
void SaveTraceFile(const std::string& path, const Trace& t);
Trace LoadTraceFile(const std::string& path);

/// Non-aborting file load: open failures and format defects become
/// false + `error`.
bool TryLoadTraceFile(const std::string& path, Trace* out,
                      std::string* error);

}  // namespace spta::trace
