// Client side of the spta_serve protocol.
//
// A Client owns one connected stream socket (TCP, AF_UNIX, or a socketpair
// end in tests) and offers both a synchronous call-per-request API and a
// raw Send/Receive split for pipelined use (the load generator fires a
// burst of requests and reaps the responses afterwards). It shares the
// server's frame stack: frames go out as AppendRequestFrameWithTrace
// bytes, responses are cut out of received slices by FrameReassembler and
// decoded by BuildResponse, and every recv/send goes through GuardedIo
// (fd_stream.hpp). Sample values travel as the %.17g text that FormatDouble
// (common/double_text.hpp) writes, and the server reads them with the one
// sample reader, analysis::TryReadSamplesCsv, so the doubles it analyzes
// are bit-identical to the client's — the foundation of the
// served-equals-batch golden guarantee.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "mbpta/per_path.hpp"
#include "service/fd_stream.hpp"
#include "service/frame_reader.hpp"
#include "service/protocol.hpp"

namespace spta::service {

/// Encodes observations as `cycles[,path]` payload lines, each time as
/// FormatDouble's %.17g text (path 0 is left implicit, matching the CSV
/// format).
std::string EncodeSamplePayload(
    std::span<const mbpta::PathObservation> observations);

class Client {
 public:
  /// Adopts `fd`, a connected stream socket, and closes it on destruction.
  /// `hook` (may be empty) is consulted before every recv/send; see
  /// IoFaultHook.
  explicit Client(int fd, IoFaultHook hook = {});
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to a fleet's TCP listener at host:port (IPv4 dotted quad),
  /// with TCP_NODELAY set so the request/response ping-pong of the
  /// synchronous API is not held hostage by Nagle. nullptr + `error` on
  /// failure. `io_timeout_ms` > 0 installs SO_RCVTIMEO/SO_SNDTIMEO on the
  /// socket — the per-attempt deadline of the resilient client: a recv or
  /// send that stalls past it fails the attempt (a kernel EAGAIN, which
  /// GuardedIo does not retry) instead of hanging on a dead or wedged peer.
  static std::unique_ptr<Client> ConnectTcp(const std::string& host,
                                            std::uint16_t port,
                                            std::string* error,
                                            double io_timeout_ms = 0.0);
  /// Connects to a listening AF_UNIX socket; otherwise as ConnectTcp.
  static std::unique_ptr<Client> ConnectUnix(const std::string& path,
                                             std::string* error,
                                             double io_timeout_ms = 0.0);

  /// Fire one request without waiting (pipelining). False on write error.
  /// When the request carries no trace context and the calling thread
  /// does (obs::CurrentTraceContext), the thread's context is stamped on
  /// the outgoing frame header — so any code running under a ScopedSpan
  /// propagates its distributed trace to the server transparently.
  bool Send(const Request& request);

  /// Writes pre-encoded bytes (a burst of frames) as they are. False on
  /// write error.
  bool WriteBytes(std::string_view bytes);

  /// Reap the next response in order. False on EOF/framing error, with a
  /// diagnostic in `error` ("connection closed" on EOF between frames).
  /// A failed recv ends the stream as EOF does.
  bool Receive(Response* response, std::string* error);

  /// Send + Receive. Transport failures surface as an ERR response with
  /// code=transport.
  Response Call(const Request& request);

  // Convenience wrappers (all synchronous).
  Response Ping();
  Response Open(const std::string& session);
  Response Append(const std::string& session,
                  std::span<const mbpta::PathObservation> observations);
  Response Status(const std::string& session);
  /// Analyze a session's ingested sample; extra args (prob=..., per_path=1)
  /// come from `options`.
  Response AnalyzeSession(const std::string& session, Args options = {});
  /// One-shot analysis of an inline sample.
  Response AnalyzeInline(std::span<const mbpta::PathObservation> observations,
                         Args options = {});
  Response Close(const std::string& session);
  Response Metrics();
  /// Prometheus text exposition (payload carries the scrape body).
  Response MetricsProm();
  /// Liveness/readiness probe (answered on the fleet's event loop).
  Response Health();
  /// Chrome trace-event JSON export of the server's in-process tracer
  /// (payload carries the JSON body; args carry events/dropped/enabled).
  Response Trace();
  Response Shutdown();

 private:
  int fd_;
  IoFaultHook hook_;
  FrameReassembler reassembler_;
  bool at_eof_ = false;  ///< A recv hit EOF or failed; only Finish is left.
};

}  // namespace spta::service
