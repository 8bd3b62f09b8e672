// Crash-surviving flight recorder: a bounded shared-memory ring of the
// most recent spans, instants, and metric snapshots, written lock-free
// by a service child and harvested by the fleet supervisor *after* the
// child dies — including SIGKILL, where the child gets no chance to
// flush anything itself.
//
// Mechanics: the supervisor creates an anonymous memfd sized for the
// ring and passes it across fork+execv as `--flight-fd N` (the same
// inheritance pattern as the watchdog's `--health-fd`). Both sides mmap
// the same pages MAP_SHARED, so every byte the child wrote before the
// fatal signal is still there when the supervisor maps it post-mortem.
//
// Ring layout (one file = one child incarnation):
//
//   [RingHeader: magic, version, slot geometry, writer pid, cursor]
//   [slot 0][slot 1] ... [slot N-1]
//
// Each slot is fixed-size: a 4-byte payload length, a 4-byte checksum
// (common/hash HashBytes, truncated), then the FlightRecord payload.
// Writers claim a slot with an atomic fetch-add on the header cursor
// (total records ever claimed; slot = claim % N) and write payload
// before checksum before length. A writer killed mid-slot therefore
// leaves a record whose checksum cannot match — the harvester validates
// length + checksum per slot, **skips and counts** torn records, and
// never aborts: losing one record to a crash is the design, losing the
// supervisor to a corrupt ring would be a bug (pinned by the seeded
// torn-write test in tests/obs_test.cpp).
//
// The writer side piggybacks on the tracer: every event recorded by
// obs::Tracer is mirrored into the global flight recorder when one is
// attached (see FlightRecordEvent), so the ring always holds the last N
// spans without separate instrumentation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace spta::obs {

struct TraceEvent;

/// One ring record. Plain bytes only — the ring is shared memory, so
/// strings are copied into fixed fields (truncated if longer), never
/// stored as pointers.
struct FlightRecord {
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  std::uint64_t arg_value = 0;
  std::uint32_t tid = 0;
  char phase = 'X';  ///< 'X' span, 'i' instant (metric snapshots are
                     ///< instants in category "metric").
  char category[23] = {};
  char name[40] = {};
  char arg_name[16] = {};
};

class FlightRecorder {
 public:
  static constexpr std::uint64_t kMagic = 0x31305246'41545053ULL;  // "SPTAFR01"
  static constexpr std::uint32_t kVersion = 1;
  /// 4-byte length + 4-byte checksum + payload, padded for alignment.
  static constexpr std::size_t kSlotSize = 160;
  static constexpr std::size_t kHeaderSize = 64;
  static constexpr std::size_t kDefaultSlots = 1024;

  /// Total ring file size for `slots` records.
  static std::size_t RingBytes(std::size_t slots) {
    return kHeaderSize + slots * kSlotSize;
  }

  /// Creates and sizes the memfd backing one ring (no close-on-exec, so
  /// it survives execv into the child). Returns -1 and fills `error` on
  /// failure.
  static int CreateRingFd(std::size_t slots, std::string* error);

  /// Writer side: maps `fd` and initializes the header (this process
  /// becomes the ring's writer). The fd itself stays owned by the
  /// caller. Returns false (and leaves the recorder detached) on a
  /// mapping/geometry failure — recording then no-ops.
  bool AttachWriter(int fd, std::string* error);

  bool attached() const { return header_ != nullptr; }

  /// Mirrors one tracer event into the ring. Lock-free; safe from any
  /// thread. No-op when detached.
  void RecordEvent(const TraceEvent& event, std::uint32_t tid);

  /// Records a metric snapshot (an instant in category "metric" with
  /// arg "value"). No-op when detached.
  void RecordMetric(const char* name, std::uint64_t value);

  ~FlightRecorder();

  /// What a post-mortem read of a ring recovered.
  struct Harvest {
    bool valid = false;  ///< Header magic/version/geometry checked out.
    std::uint64_t writer_pid = 0;
    std::uint64_t claimed = 0;  ///< Records ever claimed by the writer.
    std::uint64_t torn = 0;     ///< Slots skipped: bad length or checksum.
    std::vector<FlightRecord> records;  ///< Oldest first.
  };

  /// Reads a ring fd post-mortem. Tolerates any corruption — a garbage
  /// header yields valid=false, torn slots are skipped and counted —
  /// and never throws: the supervisor must survive whatever the dead
  /// child left behind.
  static Harvest HarvestFd(int fd);

  /// Renders a harvest as Chrome trace_event JSON (same schema as
  /// Tracer::WriteChromeTrace, with the writer's pid on every event and
  /// a harvest summary in metadata).
  static std::string HarvestToChromeJson(const Harvest& harvest);

 private:
  void* base_ = nullptr;
  std::size_t map_bytes_ = 0;
  struct RingHeader* header_ = nullptr;
  unsigned char* slots_ = nullptr;
  std::uint64_t slot_count_ = 0;
};

/// Sets the process-global recorder the tracer mirrors into (nullptr =
/// none).
void SetGlobalFlightRecorder(FlightRecorder* recorder);

/// Tracer → flight recorder bridge: mirrors `event` into the global
/// recorder if one is attached. Called on every recorded event.
void FlightRecordEvent(const TraceEvent& event, std::uint32_t tid);

}  // namespace spta::obs
