// The guarded socket syscall shared by both ends of the spta1 wire.
//
// ShardedServer::ConnIo (every served connection) and service::Client
// (every client connection) issue each recv()/send() through GuardedIo, so
// one function holds the syscall discipline — the resilience contract
// exercised by tests/fd_stream_fault_test.cpp and
// tests/fault_matrix_smoke.cpp:
//   - EINTR is always retried (a signal must never tear a frame),
//   - injected EAGAIN (via the fault hook below) is retried up to
//     kInjectedEagainBudget times and then fails the call with EIO, so a
//     transient storm is survived but a persistent one fails the
//     connection instead of spinning,
//   - EAGAIN/EWOULDBLOCK from the kernel is returned unchanged: on a
//     client socket with SO_RCVTIMEO/SO_SNDTIMEO it IS the per-attempt
//     deadline (retrying would defeat it), on the event loop's nonblocking
//     sockets it means "wait for the next edge",
//   - short reads and writes are returned as such; callers bank them
//     (FrameReassembler) or loop to completion.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>

namespace spta::service {

/// Direction of the syscall an I/O fault decision applies to.
enum class IoOp { kRead, kWrite };

/// What the fault hook wants done to one recv()/send() call.
struct IoFault {
  /// Nonzero: the syscall is NOT issued; the call behaves as if it failed
  /// with this errno (EINTR/EAGAIN follow the retry discipline above;
  /// anything else fails the call).
  int error = 0;
  /// Caps the byte count passed to the syscall (models short reads and
  /// partial writes). Ignored when `error` or `disconnect` is set.
  std::size_t cap = static_cast<std::size_t>(-1);
  /// The peer vanished mid-frame: reads hit EOF, writes fail (as after
  /// ECONNRESET). Terminal for the connection.
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

/// Injected-EAGAIN retries per syscall: a short storm is survived, a
/// persistent one fails the call with EIO instead of spinning. EINTR has
/// no budget — the POSIX contract is to retry it indefinitely.
inline constexpr int kInjectedEagainBudget = 8;

/// One recv() into `read_buf` (kRead) or send() from `write_buf` (kWrite,
/// MSG_NOSIGNAL) of at most `count` bytes on the stream socket `fd`, under
/// `hook` (may be empty; the zero-fault path is one branch per call).
/// Returns the byte count, 0 for EOF or an injected read disconnect, or -1
/// with errno set. Each fault the hook fires (any decision other than
/// IoFault::None()) adds one to `*faults_fired` when it is non-null.
ssize_t GuardedIo(int fd, IoOp op, char* read_buf, const char* write_buf,
                  std::size_t count, const IoFaultHook& hook,
                  std::uint64_t* faults_fired = nullptr);

}  // namespace spta::service
