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
#include <utility>

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

Client::Client(int fd, IoFaultHook hook) : fd_(fd), hook_(std::move(hook)) {}

Client::~Client() { ::close(fd_); }

bool Client::Send(const Request& request) {
  std::string frame;
  const obs::TraceContext current = obs::CurrentTraceContext();
  if (!request.trace.valid() && current.valid()) {
    Request traced = request;
    traced.trace = current;
    AppendRequestFrameWithTrace(traced, &frame);
  } else {
    AppendRequestFrameWithTrace(request, &frame);
  }
  return WriteBytes(frame);
}

bool Client::WriteBytes(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = GuardedIo(fd_, IoOp::kWrite, nullptr, bytes.data(),
                                bytes.size(), hook_);
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

bool Client::Receive(Response* response, std::string* error) {
  std::string type;
  std::string body;
  for (;;) {
    const FrameReassembler::Result result =
        at_eof_ ? reassembler_.Finish(&type, &body, error)
                : reassembler_.Next(&type, &body, error);
    if (result == FrameReassembler::Result::kFrame) {
      return BuildResponse(type, body, response, error);
    }
    if (result == FrameReassembler::Result::kMalformed) return false;
    if (at_eof_) {
      *error = "connection closed";
      return false;
    }
    char buffer[1 << 16];
    const ssize_t n =
        GuardedIo(fd_, IoOp::kRead, buffer, nullptr, sizeof(buffer), hook_);
    if (n > 0) {
      reassembler_.Feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    } else {
      at_eof_ = true;
    }
  }
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

/// Opens a `family` stream socket, installs SO_RCVTIMEO/SO_SNDTIMEO when
/// io_timeout_ms > 0 and connects it to `addr`. The fd, or -1 + `error`
/// naming `target`.
int ConnectSocket(int family, const sockaddr* addr, socklen_t addr_len,
                  const std::string& target, double io_timeout_ms,
                  std::string* error) {
  const int fd = ::socket(family, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket(): ") + std::strerror(errno);
    return -1;
  }
  if (io_timeout_ms > 0.0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(io_timeout_ms / 1000.0);
    tv.tv_usec = static_cast<suseconds_t>(
        (io_timeout_ms - static_cast<double>(tv.tv_sec) * 1000.0) * 1000.0);
    if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1000;  // min 1ms
    if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0 ||
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
      *error = std::string("setsockopt(timeout): ") + std::strerror(errno);
      ::close(fd);
      return -1;
    }
  }
  if (::connect(fd, addr, addr_len) != 0) {
    *error = "connect('" + target + "'): " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

std::unique_ptr<Client> Client::ConnectTcp(const std::string& host,
                                           std::uint16_t port,
                                           std::string* error,
                                           double io_timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "bad IPv4 address: " + host;
    return nullptr;
  }
  const int fd = ConnectSocket(
      AF_INET, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr),
      host + ":" + std::to_string(port), io_timeout_ms, error);
  if (fd < 0) return nullptr;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<Client>(fd);
}

std::unique_ptr<Client> Client::ConnectUnix(const std::string& path,
                                            std::string* error,
                                            double io_timeout_ms) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long: " + path;
    return nullptr;
  }
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd =
      ConnectSocket(AF_UNIX, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr), path, io_timeout_ms, error);
  if (fd < 0) return nullptr;
  return std::make_unique<Client>(fd);
}

}  // namespace spta::service
