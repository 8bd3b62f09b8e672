// Client side of the spta_serve protocol.
//
// A Client wraps a connected request/response stream pair (a Unix-socket
// connection, or any istream/ostream in tests) and offers both a
// synchronous call-per-request API and a raw Send/Receive split for
// pipelined use (the load generator fires a burst of requests and reaps
// the responses afterwards). Sample values travel as the %.17g text that
// FormatDouble (common/double_text.hpp) writes, and the server reads them
// with the one sample reader, analysis::TryReadSamplesCsv, so the doubles
// it analyzes are bit-identical to the client's — the foundation of the
// served-equals-batch golden guarantee.
#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <string>

#include "mbpta/per_path.hpp"
#include "service/fd_stream.hpp"
#include "service/protocol.hpp"

namespace spta::service {

/// Encodes observations as `cycles[,path]` payload lines, each time as
/// FormatDouble's %.17g text (path 0 is left implicit, matching the CSV
/// format).
std::string EncodeSamplePayload(
    std::span<const mbpta::PathObservation> observations);

class Client {
 public:
  /// Streams must outlive the client. `in` carries responses, `out`
  /// requests.
  Client(std::istream& in, std::ostream& out) : in_(in), out_(out) {}

  /// Fire one request without waiting (pipelining). False on write error.
  /// When the request carries no trace context and the calling thread
  /// does (obs::CurrentTraceContext), the thread's context is stamped on
  /// the outgoing frame header — so any code running under a ScopedSpan
  /// propagates its distributed trace to the server transparently.
  bool Send(const Request& request);

  /// Reap the next response in order. False on EOF/framing error, with a
  /// diagnostic in `error`.
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
  std::istream& in_;
  std::ostream& out_;
};

/// A TCP connection to a sharded fleet listener, owning its fd and stream
/// adapters. Same shape as UnixSocketConnection; TCP_NODELAY is set so the
/// request/response ping-pong of the synchronous Client API is not held
/// hostage by Nagle.
class TcpConnection {
 public:
  /// Connects to host:port (IPv4 dotted quad); nullptr + `error` on
  /// failure. `io_timeout_ms` as in UnixSocketConnection::Connect.
  static std::unique_ptr<TcpConnection> Connect(const std::string& host,
                                                std::uint16_t port,
                                                std::string* error,
                                                double io_timeout_ms = 0.0);

  ~TcpConnection();
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  std::istream& in() { return *in_; }
  std::ostream& out() { return *out_; }

 private:
  explicit TcpConnection(int fd);

  int fd_;
  std::unique_ptr<FdStreambuf> in_buf_;
  std::unique_ptr<FdStreambuf> out_buf_;
  std::unique_ptr<std::istream> in_;
  std::unique_ptr<std::ostream> out_;
};

/// An AF_UNIX stream connection owning its fd and stream adapters.
class UnixSocketConnection {
 public:
  /// Connects to a listening spta_serve socket; nullptr + `error` on
  /// failure. `io_timeout_ms` > 0 installs SO_RCVTIMEO/SO_SNDTIMEO on the
  /// socket — the per-attempt deadline of the resilient client: a read or
  /// write that stalls past it fails the attempt (EAGAIN, not retried by
  /// FdStreambuf) instead of hanging on a dead or wedged peer.
  static std::unique_ptr<UnixSocketConnection> Connect(
      const std::string& path, std::string* error, double io_timeout_ms = 0.0);

  ~UnixSocketConnection();
  UnixSocketConnection(const UnixSocketConnection&) = delete;
  UnixSocketConnection& operator=(const UnixSocketConnection&) = delete;

  std::istream& in() { return *in_; }
  std::ostream& out() { return *out_; }

 private:
  explicit UnixSocketConnection(int fd);

  int fd_;
  std::unique_ptr<FdStreambuf> in_buf_;
  std::unique_ptr<FdStreambuf> out_buf_;
  std::unique_ptr<std::istream> in_;
  std::unique_ptr<std::ostream> out_;
};

}  // namespace spta::service
