#include "service/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>

#include "common/double_text.hpp"

namespace spta::service {

std::string EncodeSamplePayload(
    std::span<const mbpta::PathObservation> observations) {
  // Room for the longest row (the longest time, ',', a 20-digit path id and
  // '\n'), plus the spare bytes FormatDouble may address past the last
  // time; the slack is given back once the rows are written.
  constexpr std::size_t kMaxRow = kDoubleTextMaxLength + 22;
  std::string payload(observations.size() * kMaxRow +
                          (kDoubleTextCapacity - kDoubleTextMaxLength),
                      '\0');
  char* out = payload.data();
  for (const auto& obs : observations) {
    out = FormatDouble(obs.time, out);
    if (obs.path_id != 0) {
      *out++ = ',';
      out = std::to_chars(out, out + 20, obs.path_id).ptr;
    }
    *out++ = '\n';
  }
  payload.resize(static_cast<std::size_t>(out - payload.data()));
  payload.shrink_to_fit();
  return payload;
}

bool Client::Send(const Request& request) {
  if (!request.trace.valid()) {
    const obs::TraceContext current = obs::CurrentTraceContext();
    if (current.valid()) {
      Request traced = request;
      traced.trace = current;
      return WriteRequest(out_, traced);
    }
  }
  return WriteRequest(out_, request);
}

bool Client::Receive(Response* response, std::string* error) {
  const ReadStatus status = ReadResponse(in_, response, error);
  if (status == ReadStatus::kEof) {
    *error = "connection closed";
    return false;
  }
  return status == ReadStatus::kOk;
}

Response Client::Call(const Request& request) {
  std::string error;
  if (!Send(request)) return ErrResponse("transport", "write failed");
  Response response;
  if (!Receive(&response, &error)) return ErrResponse("transport", error);
  return response;
}

Response Client::Ping() {
  Request request;
  request.kind = RequestKind::kPing;
  return Call(request);
}

Response Client::Open(const std::string& session) {
  Request request;
  request.kind = RequestKind::kOpen;
  request.args.Set("session", session);
  return Call(request);
}

Response Client::Append(
    const std::string& session,
    std::span<const mbpta::PathObservation> observations) {
  Request request;
  request.kind = RequestKind::kAppend;
  request.args.Set("session", session);
  request.args.SetUint("count", observations.size());
  request.payload = EncodeSamplePayload(observations);
  return Call(request);
}

Response Client::Status(const std::string& session) {
  Request request;
  request.kind = RequestKind::kStatus;
  request.args.Set("session", session);
  return Call(request);
}

Response Client::AnalyzeSession(const std::string& session, Args options) {
  Request request;
  request.kind = RequestKind::kAnalyze;
  request.args = std::move(options);
  request.args.Set("session", session);
  return Call(request);
}

Response Client::AnalyzeInline(
    std::span<const mbpta::PathObservation> observations, Args options) {
  Request request;
  request.kind = RequestKind::kAnalyze;
  request.args = std::move(options);
  request.args.SetUint("count", observations.size());
  request.payload = EncodeSamplePayload(observations);
  return Call(request);
}

Response Client::Close(const std::string& session) {
  Request request;
  request.kind = RequestKind::kClose;
  request.args.Set("session", session);
  return Call(request);
}

Response Client::Metrics() {
  Request request;
  request.kind = RequestKind::kMetrics;
  return Call(request);
}

Response Client::MetricsProm() {
  Request request;
  request.kind = RequestKind::kMetricsProm;
  return Call(request);
}

Response Client::Health() {
  Request request;
  request.kind = RequestKind::kHealth;
  return Call(request);
}

Response Client::Trace() {
  Request request;
  request.kind = RequestKind::kTrace;
  return Call(request);
}

Response Client::Shutdown() {
  Request request;
  request.kind = RequestKind::kShutdown;
  return Call(request);
}

namespace {

/// Installs SO_RCVTIMEO/SO_SNDTIMEO when io_timeout_ms > 0. False + errno
/// message on failure.
bool InstallIoTimeout(int fd, double io_timeout_ms, std::string* error) {
  if (io_timeout_ms <= 0.0) return true;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(io_timeout_ms / 1000.0);
  tv.tv_usec = static_cast<suseconds_t>(
      (io_timeout_ms - static_cast<double>(tv.tv_sec) * 1000.0) * 1000.0);
  if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1000;  // min 1ms
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0 ||
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    *error = std::string("setsockopt(timeout): ") + std::strerror(errno);
    return false;
  }
  return true;
}

}  // namespace

TcpConnection::TcpConnection(int fd)
    : fd_(fd),
      in_buf_(std::make_unique<FdStreambuf>(fd)),
      out_buf_(std::make_unique<FdStreambuf>(fd)),
      in_(std::make_unique<std::istream>(in_buf_.get())),
      out_(std::make_unique<std::ostream>(out_buf_.get())) {}

TcpConnection::~TcpConnection() {
  out_->flush();
  ::close(fd_);
}

std::unique_ptr<TcpConnection> TcpConnection::Connect(const std::string& host,
                                                      std::uint16_t port,
                                                      std::string* error,
                                                      double io_timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket(): ") + std::strerror(errno);
    return nullptr;
  }
  if (!InstallIoTimeout(fd, io_timeout_ms, error)) {
    ::close(fd);
    return nullptr;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "bad IPv4 address: " + host;
    ::close(fd);
    return nullptr;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = "connect('" + host + ":" + std::to_string(port) +
             "'): " + std::strerror(errno);
    ::close(fd);
    return nullptr;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<TcpConnection>(new TcpConnection(fd));
}

UnixSocketConnection::UnixSocketConnection(int fd)
    : fd_(fd),
      in_buf_(std::make_unique<FdStreambuf>(fd)),
      out_buf_(std::make_unique<FdStreambuf>(fd)),
      in_(std::make_unique<std::istream>(in_buf_.get())),
      out_(std::make_unique<std::ostream>(out_buf_.get())) {}

UnixSocketConnection::~UnixSocketConnection() {
  out_->flush();
  ::close(fd_);
}

std::unique_ptr<UnixSocketConnection> UnixSocketConnection::Connect(
    const std::string& path, std::string* error, double io_timeout_ms) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    *error = "socket path too long: " + path;
    return nullptr;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket(): ") + std::strerror(errno);
    return nullptr;
  }
  if (!InstallIoTimeout(fd, io_timeout_ms, error)) {
    ::close(fd);
    return nullptr;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = "connect('" + path + "'): " + std::strerror(errno);
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<UnixSocketConnection>(new UnixSocketConnection(fd));
}

}  // namespace spta::service
