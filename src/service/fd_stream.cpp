#include "service/fd_stream.hpp"

#include <unistd.h>

#include <cerrno>
#include <utility>

namespace spta::service {
namespace {

constexpr std::size_t kBufferBytes = 1 << 16;

}  // namespace

FdStreambuf::FdStreambuf(int fd) : FdStreambuf(fd, IoFaultHook{}) {}

FdStreambuf::FdStreambuf(int fd, IoFaultHook hook)
    : fd_(fd),
      hook_(std::move(hook)),
      in_buffer_(kBufferBytes),
      out_buffer_(kBufferBytes) {
  setg(in_buffer_.data(), in_buffer_.data(), in_buffer_.data());
  setp(out_buffer_.data(), out_buffer_.data() + out_buffer_.size());
}

ssize_t FdStreambuf::GuardedIo(IoOp op, char* read_buf, const char* write_buf,
                               std::size_t count) {
  int injected_eagain = 0;
  for (;;) {
    std::size_t n = count;
    if (hook_) {
      const IoFault fault = hook_(op, count);
      if (fault.disconnect) {
        if (op == IoOp::kRead) return 0;  // peer closed: reader sees EOF
        errno = EPIPE;
        return -1;
      }
      if (fault.error != 0) {
        if (fault.error == EINTR) continue;
        if (fault.error == EAGAIN || fault.error == EWOULDBLOCK) {
          if (++injected_eagain <= kInjectedEagainBudget) continue;
          errno = EAGAIN;
          return -1;
        }
        errno = fault.error;
        return -1;
      }
      if (fault.cap < n && fault.cap > 0) n = fault.cap;
    }
    const ssize_t r = op == IoOp::kRead
                          ? ::read(fd_, read_buf, n)
                          : ::write(fd_, write_buf, n);
    if (r < 0 && errno == EINTR) continue;
    // Real EAGAIN/EWOULDBLOCK is the per-attempt deadline firing
    // (SO_RCVTIMEO/SO_SNDTIMEO) — fail the attempt, don't retry it away.
    return r;
  }
}

FdStreambuf::int_type FdStreambuf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  const ssize_t n =
      GuardedIo(IoOp::kRead, in_buffer_.data(), nullptr, in_buffer_.size());
  if (n <= 0) return traits_type::eof();
  setg(in_buffer_.data(), in_buffer_.data(), in_buffer_.data() + n);
  return traits_type::to_int_type(*gptr());
}

bool FdStreambuf::FlushBuffer() {
  const char* data = pbase();
  std::size_t left = static_cast<std::size_t>(pptr() - pbase());
  while (left > 0) {
    const ssize_t n = GuardedIo(IoOp::kWrite, nullptr, data, left);
    if (n <= 0) return false;
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  setp(out_buffer_.data(), out_buffer_.data() + out_buffer_.size());
  return true;
}

FdStreambuf::int_type FdStreambuf::overflow(int_type ch) {
  if (!FlushBuffer()) return traits_type::eof();
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
  }
  return traits_type::not_eof(ch);
}

int FdStreambuf::sync() { return FlushBuffer() ? 0 : -1; }

}  // namespace spta::service
