// Framed request/response protocol for the spta_serve analysis service.
//
// The service speaks one wire format over every transport (Unix socket,
// TCP, the stdin/stdout pipe bridge, in-memory byte strings in tests):
//
//   spta1 <TYPE> <nbytes>\n
//   <nbytes bytes of body>
//
// The length prefix makes framing unambiguous and 8-bit clean. The body's
// FIRST line is a sequence of space-separated `key=value` argument tokens
// (no spaces inside keys or values); everything after the first newline is
// free-form bulk payload (sample chunks on requests, report text on
// responses). Requests carry a verb TYPE (PING, OPEN, APPEND, STATUS,
// ANALYZE, CLOSE, METRICS, METRICS_PROM, SHUTDOWN, HEALTH, TRACE);
// responses carry OK or ERR.
//
// One frame stack serves both ends of the wire: frames are encoded with
// the Append*Frame writers below, cut out of received bytes by
// FrameReassembler (frame_reader.hpp), and decoded with BuildRequest /
// BuildResponse. This is untrusted-input territory: the decoders never
// abort the process on malformed frames — they report a diagnostic and let
// the server answer ERR and drop the connection.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "obs/trace_context.hpp"

namespace spta::service {

enum class RequestKind {
  kPing,
  kOpen,
  kAppend,
  kStatus,
  kAnalyze,
  kClose,
  kMetrics,
  kMetricsProm,  ///< Prometheus text-format metrics scrape.
  kShutdown,
  /// Liveness + readiness probe. Answered on the event-loop thread (never
  /// queued) — a HEALTH response proves the serving loop itself is alive
  /// even when every shard is wedged; its args/payload carry per-shard
  /// readiness (queue depth, inflight, admission cost, last-completion
  /// age, stalled flag).
  kHealth,
  /// Trace export: answers with the process's recorded spans as Chrome
  /// trace_event JSON (format=chrome-trace). Answered inline / on the
  /// event-loop thread, like METRICS — it reads the tracer, never the
  /// analysis queue. `spta_fleet --trace-dir` and `spta_cli trace-view
  /// --merge` stitch these per-process exports into one trace.
  kTrace,
};

/// Number of RequestKind values (per-verb counter array size).
inline constexpr int kRequestKindCount = 11;

/// Hard cap on a frame's body length. Enforced by the header parser BEFORE
/// any body byte is banked — a hostile length prefix never costs more
/// than this.
inline constexpr std::uint64_t kMaxFrameBytes = 64ull << 20;  // 64 MiB

/// Wire name of a request kind ("PING", "OPEN", ...).
const char* RequestKindName(RequestKind kind);

/// Inverse of RequestKindName; nullopt for unknown verbs.
std::optional<RequestKind> ParseRequestKind(std::string_view name);

/// The `key=value` argument tokens of a frame's first body line.
class Args {
 public:
  /// Parses a space-separated `key=value` token line. Tokens without '='
  /// or with an empty key are silently skipped — only the well-formed
  /// tokens are kept, and an absent key falls back to its default at
  /// Get* time. Callers that must surface typos have to validate the
  /// parsed keys themselves.
  static Args Parse(std::string_view line);

  void Set(const std::string& key, const std::string& value);
  void SetUint(const std::string& key, std::uint64_t value);
  /// Full-precision round-trip encoding (%.17g).
  void SetDouble(const std::string& key, double value);
  /// Drops `key` if present (no-op otherwise).
  void Erase(const std::string& key);

  bool Has(const std::string& key) const;
  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const;
  /// Returns fallback when absent; nullopt-free by design — use Has() to
  /// distinguish. Returns fallback on non-numeric garbage as well (the
  /// caller validates semantics, not syntax).
  std::uint64_t GetUint(const std::string& key, std::uint64_t fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  bool GetBool(const std::string& key, bool fallback = false) const;

  /// Deterministic (key-sorted) `key=value key=value` encoding.
  std::string Encode() const;

  const std::map<std::string, std::string>& values() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

struct Request {
  RequestKind kind = RequestKind::kPing;
  Args args;
  /// Bulk payload lines (after the args line), e.g. `cycles[,path]` rows.
  std::string payload;
  /// Distributed trace context, carried OUT-OF-BAND of the body as an
  /// optional `trace=<16hex>-<16hex>` header token. Deliberately not
  /// part of the body: routing digests and warm-memo keys hash body
  /// bytes, so an id that varies per request must never perturb them.
  /// Invalid (the default) = untraced; AppendRequestFrame ignores it
  /// (use AppendRequestFrameWithTrace, as Client::Send does, to emit it).
  obs::TraceContext trace;
};

struct Response {
  bool ok = true;
  Args args;
  /// Report text on OK (metrics dump, analysis table) or the diagnostic
  /// message on ERR.
  std::string payload;
};

/// Convenience constructors.
Response OkResponse(Args args = {}, std::string payload = {});
Response ErrResponse(const std::string& code, const std::string& message);

// --- Buffer-level frame helpers (the incremental FrameReassembler in
// --- frame_reader.hpp cuts frames; these parse and build them).

/// Parses one header line (WITHOUT its trailing newline): the first three
/// whitespace-separated tokens must be the magic, the TYPE and the decimal
/// body length; extra tokens are ignored, matching the historical
/// stream-extraction semantics the robustness battery pins. Enforces
/// kMaxFrameBytes. False → `error` holds the diagnostic.
///
/// When `trace` is non-null, the first extra token of the form
/// `trace=<value>` is parsed leniently into it (anything malformed —
/// truncated, oversized, garbage hex, duplicated with a junk first copy —
/// yields an invalid context, NEVER a header error; untraced peers and
/// fuzzed headers must parse exactly as before).
bool ParseFrameHeaderLine(std::string_view header, std::string* type,
                          std::uint64_t* nbytes, std::string* error,
                          obs::TraceContext* trace = nullptr);

/// Splits a frame body into its first-line Args and the payload remainder.
void SplitFrameBody(std::string_view body, Args* args, std::string* payload);

/// Assembles a Request from a reassembled frame (verb token + raw body
/// bytes). False on an unknown verb, with `error` naming it.
bool BuildRequest(std::string_view type, std::string_view body,
                  Request* request, std::string* error);

/// Assembles a Response from a reassembled frame (OK or ERR + raw body
/// bytes). False on any other type, with `error` naming it.
bool BuildResponse(std::string_view type, std::string_view body,
                   Response* response, std::string* error);

/// Append the wire encoding of a frame to `out` (the event loop and the
/// client both write contiguous output buffers).
/// AppendRequestFrame never emits the trace header token — re-encoding a
/// parsed request is byte-stable regardless of how it arrived.
void AppendRequestFrame(const Request& request, std::string* out);
/// Like AppendRequestFrame, plus the `trace=` header token when
/// `request.trace` is valid (byte-identical to AppendRequestFrame when
/// it is not).
void AppendRequestFrameWithTrace(const Request& request, std::string* out);
void AppendResponseFrame(const Response& response, std::string* out);

}  // namespace spta::service
