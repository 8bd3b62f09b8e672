// Incremental spta1 frame reassembly: the one frame reader, at both ends
// of the wire.
//
// The event loop cannot park a thread mid-frame — one stalled read would
// freeze every connection on the shard — so it feeds FrameReassembler
// whatever slice the socket produced (a partial header, a split length
// prefix, three frames glued together) and Next() yields complete frames
// as they materialize, never blocking and never copying a body more than
// once. service::Client reads its responses the same way, feeding the
// slices of its blocking recv() calls.
//
// Semantics are those of the getline + read decoder the service started
// with, byte for byte: the same headers are accepted and the same
// diagnostics produced. tests/protocol_robustness_test.cpp keeps a copy of
// that decoder as its oracle and feeds every golden frame through both at
// every byte boundary. The one deliberate addition is a bound on the header
// line (getline would buffer an endless headerless stream; an event loop
// must cut such a connection off).
//
// A malformed frame poisons the reassembler: framing is lost, so every
// later call reports the same error and the connection must be dropped —
// "answer once, then stop reading".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "service/protocol.hpp"

namespace spta::service {

class FrameReassembler {
 public:
  enum class Result {
    kNeedMore,   ///< No complete frame banked yet (or clean EOF in Finish).
    kFrame,      ///< `type` and `body` hold the next frame.
    kMalformed,  ///< Framing lost; `error` diagnoses. Sticky.
  };

  struct Limits {
    /// Bytes a header line may span before the connection is cut off.
    std::size_t max_header_bytes = 4096;
  };

  FrameReassembler() = default;
  explicit FrameReassembler(Limits limits) : limits_(limits) {}

  /// Banks one received slice. Cheap (amortized one copy into the bank).
  void Feed(std::string_view bytes) { buffer_.append(bytes); }

  /// Extracts the next complete frame. Call until kNeedMore after every
  /// Feed — several frames may have arrived in one slice.
  Result Next(std::string* type, std::string* body, std::string* error);

  /// EOF edge: the peer closed its write half. Applies getline + read
  /// end-of-stream semantics to whatever is still banked — a final header
  /// line needs no newline (EOF terminates it), a zero-length body
  /// completes, anything else is a truncated frame. kNeedMore here means a
  /// clean EOF between frames.
  Result Finish(std::string* type, std::string* body, std::string* error);

  /// True after any kMalformed: framing is unrecoverable on this stream.
  bool poisoned() const { return poisoned_; }

  /// Trace context of the most recent kFrame (invalid when its header
  /// carried no — or a malformed — `trace=` token). The split-point
  /// battery pins it at every cut of a traced header.
  const obs::TraceContext& last_trace() const { return last_trace_; }

  /// Bytes banked but not yet consumed by a returned frame.
  std::size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  Result Poison(std::string* error, std::string message);
  /// Reclaims consumed prefix bytes once they dominate the bank.
  void Compact();

  Limits limits_;
  std::string buffer_;
  std::size_t consumed_ = 0;
  bool poisoned_ = false;
  std::string poison_error_;
  obs::TraceContext last_trace_;
};

}  // namespace spta::service
