// Minimal iostream adapter over a POSIX file descriptor.
//
// The service's protocol layer speaks std::istream/std::ostream so it can
// be driven identically over a Unix socket, a pipe, or an in-memory
// stringstream in tests. This streambuf is the socket glue: buffered
// read()/write() with no third-party dependencies. One FdStreambuf serves
// one direction; a connection uses two over the same fd (reads and writes
// on a stream socket are independent).
//
// Syscall discipline (the resilience contract exercised by
// tests/fd_stream_fault_test.cpp):
//   - EINTR is always retried (a signal must never tear a frame),
//   - EAGAIN/EWOULDBLOCK from the kernel fails the stream (with
//     SO_RCVTIMEO/SO_SNDTIMEO installed it IS the per-attempt deadline;
//     retrying would defeat it),
//   - injected EAGAIN (via the fault hook below) is retried up to a small
//     budget, so a transient storm is survived but a persistent one fails
//     the stream instead of spinning forever,
//   - short reads/writes are looped to completion as POSIX requires.
#pragma once

#include <cstddef>
#include <functional>
#include <streambuf>
#include <vector>

namespace spta::service {

/// Direction of the syscall an I/O fault decision applies to.
enum class IoOp { kRead, kWrite };

/// What the fault hook wants done to one read()/write() call.
struct IoFault {
  /// Nonzero: the syscall is NOT issued; the stream behaves as if it
  /// failed with this errno (EINTR/EAGAIN follow the retry discipline
  /// above; anything else fails the stream).
  int error = 0;
  /// Caps the byte count passed to the syscall (models short reads and
  /// partial writes). Ignored when `error` or `disconnect` is set.
  std::size_t cap = static_cast<std::size_t>(-1);
  /// The peer vanished mid-frame: reads hit EOF, writes fail (as after
  /// ECONNRESET). Terminal for the stream.
  bool disconnect = false;

  bool None() const {
    return error == 0 && !disconnect && cap == static_cast<std::size_t>(-1);
  }
};

/// Test/fault-injection hook consulted before every syscall. Takes the
/// direction and the byte count about to be requested; returns the fault
/// to apply (IoFault{} = proceed untouched). Must be callable from the
/// connection's own thread only — no synchronization is provided.
using IoFaultHook = std::function<IoFault(IoOp, std::size_t)>;

/// Injected-EAGAIN retries per syscall, for FdStreambuf and the fleet's
/// event loop alike: a short storm is survived, a persistent one fails
/// the stream (EAGAIN) or the served connection (EIO) instead of
/// spinning. EINTR has no budget — the POSIX contract is to retry it
/// indefinitely.
inline constexpr int kInjectedEagainBudget = 8;

class FdStreambuf : public std::streambuf {
 public:
  /// Does NOT own `fd` (the connection loop closes it).
  explicit FdStreambuf(int fd);
  /// `hook` (may be empty) is consulted before every syscall; see
  /// IoFaultHook. The zero-fault path (empty hook) is one branch per
  /// buffer refill/flush.
  FdStreambuf(int fd, IoFaultHook hook);

 protected:
  int_type underflow() override;
  int_type overflow(int_type ch) override;
  int sync() override;

 private:
  bool FlushBuffer();
  /// Issues one read()/write() under the fault hook. Returns the byte
  /// count, 0 for EOF/disconnect, or -1 with errno set (EINTR/EAGAIN
  /// already retried per the discipline above — -1 is terminal).
  ssize_t GuardedIo(IoOp op, char* read_buf, const char* write_buf,
                    std::size_t count);

  int fd_;
  IoFaultHook hook_;
  std::vector<char> in_buffer_;
  std::vector<char> out_buffer_;
};

}  // namespace spta::service
