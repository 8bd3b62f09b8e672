#include "service/fd_stream.hpp"

#include <sys/socket.h>

#include <cerrno>

namespace spta::service {

ssize_t GuardedIo(int fd, IoOp op, char* read_buf, const char* write_buf,
                  std::size_t count, const IoFaultHook& hook,
                  std::uint64_t* faults_fired) {
  int injected_eagain = 0;
  for (;;) {
    std::size_t n = count;
    if (hook) {
      const IoFault fault = hook(op, count);
      if (!fault.None() && faults_fired != nullptr) ++*faults_fired;
      if (fault.disconnect) {
        if (op == IoOp::kRead) return 0;  // Peer gone: the reader sees EOF.
        errno = EPIPE;
        return -1;
      }
      if (fault.error == EINTR) continue;
      if (fault.error == EAGAIN || fault.error == EWOULDBLOCK) {
        // Retried, never returned: the event loop would wait for an edge
        // that the bytes it already holds never raise, and a client would
        // take it for its deadline.
        if (++injected_eagain <= kInjectedEagainBudget) continue;
        errno = EIO;
        return -1;
      }
      if (fault.error != 0) {
        errno = fault.error;
        return -1;
      }
      if (fault.cap < n && fault.cap > 0) n = fault.cap;
    }
    const ssize_t r = op == IoOp::kRead
                          ? ::recv(fd, read_buf, n, 0)
                          : ::send(fd, write_buf, n, MSG_NOSIGNAL);
    if (r < 0 && errno == EINTR) continue;
    // A kernel EAGAIN/EWOULDBLOCK is the SO_RCVTIMEO/SO_SNDTIMEO deadline
    // or the next-edge signal: returned, never retried away.
    return r;
  }
}

}  // namespace spta::service
