#include "obs/flight_recorder.hpp"

#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/hash.hpp"
#include "obs/trace.hpp"

namespace spta::obs {

namespace {

std::atomic<FlightRecorder*> g_flight{nullptr};

/// Copies a C string into a fixed ring field, truncating, always
/// NUL-terminated.
template <std::size_t N>
void CopyField(char (&dst)[N], const char* src) {
  if (src == nullptr) {
    dst[0] = '\0';
    return;
  }
  std::size_t i = 0;
  for (; i + 1 < N && src[i] != '\0'; ++i) dst[i] = src[i];
  dst[i] = '\0';
}

std::uint32_t PayloadChecksum(const unsigned char* payload, std::size_t len) {
  const DualHash digest = HashBytes(
      std::string_view(reinterpret_cast<const char*>(payload), len));
  return static_cast<std::uint32_t>(digest.lo ^ (digest.lo >> 32));
}

/// JSON string escape for post-crash ring fields: the payload passed a
/// checksum, but its bytes are still whatever the dead process wrote.
void AppendJsonString(std::string* out, const char* s, std::size_t max_len) {
  out->push_back('"');
  for (std::size_t i = 0; i < max_len && s[i] != '\0'; ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c == '"') {
      out->append("\\\"");
    } else if (c == '\\') {
      out->append("\\\\");
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(static_cast<char>(c));
    }
  }
  out->push_back('"');
}

void AppendMicros(std::string* out, std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  out->append(buf);
}

void AppendHexId(std::string* out, const char* key, std::uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, ",\"%s\":\"%016" PRIx64 "\"", key, value);
  out->append(buf);
}

}  // namespace

/// The ring header. Lives at offset 0 of the shared mapping; `cursor`
/// counts records ever claimed (slot index = cursor % slot_count) and is
/// the only mutable field — bumped with std::atomic_ref so concurrent
/// recording threads in the child never hand out the same claim.
struct RingHeader {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t slot_size;
  std::uint64_t slot_count;
  std::uint64_t writer_pid;
  std::uint64_t cursor;
  std::uint64_t reserved[3];
};
static_assert(sizeof(RingHeader) == FlightRecorder::kHeaderSize,
              "ring header layout is part of the harvest contract");
static_assert(sizeof(FlightRecord) + 8 <= FlightRecorder::kSlotSize,
              "FlightRecord must fit a slot after the length+checksum");

int FlightRecorder::CreateRingFd(std::size_t slots, std::string* error) {
  if (slots == 0) slots = 1;
  // No MFD_CLOEXEC: the fd must survive execv into the service child.
  const int fd = ::memfd_create("spta-flight", 0);
  if (fd < 0) {
    if (error != nullptr) {
      *error = std::string("memfd_create: ") + std::strerror(errno);
    }
    return -1;
  }
  if (::ftruncate(fd, static_cast<off_t>(RingBytes(slots))) != 0) {
    if (error != nullptr) {
      *error = std::string("ftruncate: ") + std::strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  // Stamp the header at creation so a child that dies before
  // AttachWriter (exec failure, SIGKILL during startup) still harvests
  // as a valid-but-empty ring. AttachWriter re-stamps writer_pid.
  void* base = ::mmap(nullptr, RingBytes(slots), PROT_READ | PROT_WRITE,
                      MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) {
    if (error != nullptr) {
      *error = std::string("mmap flight ring: ") + std::strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  auto* header = static_cast<RingHeader*>(base);
  header->magic = kMagic;
  header->version = kVersion;
  header->slot_size = static_cast<std::uint32_t>(kSlotSize);
  header->slot_count = slots;
  header->writer_pid = 0;
  header->cursor = 0;
  ::munmap(base, RingBytes(slots));
  return fd;
}

bool FlightRecorder::AttachWriter(int fd, std::string* error) {
  struct stat st {};
  if (::fstat(fd, &st) != 0 ||
      static_cast<std::size_t>(st.st_size) < RingBytes(1)) {
    if (error != nullptr) *error = "flight ring fd: bad size";
    return false;
  }
  const std::size_t bytes = static_cast<std::size_t>(st.st_size);
  const std::uint64_t slots = (bytes - kHeaderSize) / kSlotSize;
  void* base =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) {
    if (error != nullptr) {
      *error = std::string("mmap flight ring: ") + std::strerror(errno);
    }
    return false;
  }
  auto* header = static_cast<RingHeader*>(base);
  header->magic = kMagic;
  header->version = kVersion;
  header->slot_size = static_cast<std::uint32_t>(kSlotSize);
  header->slot_count = slots;
  header->writer_pid = static_cast<std::uint64_t>(::getpid());
  std::atomic_ref<std::uint64_t>(header->cursor)
      .store(0, std::memory_order_relaxed);
  base_ = base;
  map_bytes_ = bytes;
  header_ = header;
  slots_ = static_cast<unsigned char*>(base) + kHeaderSize;
  slot_count_ = slots;
  return true;
}

FlightRecorder::~FlightRecorder() {
  if (base_ != nullptr) ::munmap(base_, map_bytes_);
}

void FlightRecorder::RecordEvent(const TraceEvent& event, std::uint32_t tid) {
  if (header_ == nullptr) return;
  FlightRecord record;
  record.ts_ns = event.ts_ns;
  record.dur_ns = event.dur_ns;
  record.trace_id = event.trace_id;
  record.span_id = event.span_id;
  record.parent_id = event.parent_id;
  record.arg_value = event.arg_value;
  record.tid = tid;
  record.phase = event.phase;
  CopyField(record.category, event.category);
  CopyField(record.name, event.name);
  CopyField(record.arg_name, event.arg_name);

  const std::uint64_t claim = std::atomic_ref<std::uint64_t>(header_->cursor)
                                  .fetch_add(1, std::memory_order_acq_rel);
  unsigned char* slot = slots_ + (claim % slot_count_) * kSlotSize;
  auto* len_field = reinterpret_cast<std::uint32_t*>(slot);
  auto* sum_field = reinterpret_cast<std::uint32_t*>(slot + 4);
  unsigned char* payload = slot + 8;
  // Invalidate, then payload, then checksum, then length: a writer
  // killed anywhere in this sequence leaves a slot the harvester can
  // only reject (length 0, or checksum over half-written payload).
  *len_field = 0;
  std::memcpy(payload, &record, sizeof record);
  *sum_field = PayloadChecksum(payload, sizeof record);
  *len_field = static_cast<std::uint32_t>(sizeof record);
}

void FlightRecorder::RecordMetric(const char* name, std::uint64_t value) {
  if (header_ == nullptr) return;
  TraceEvent e;
  e.category = "metric";
  e.name = name;
  e.arg_name = "value";
  e.arg_value = value;
  e.ts_ns = Tracer::NowNs();
  e.dur_ns = 0;
  e.phase = 'i';
  RecordEvent(e, 0);
}

FlightRecorder::Harvest FlightRecorder::HarvestFd(int fd) {
  Harvest harvest;
  struct stat st {};
  if (::fstat(fd, &st) != 0 ||
      static_cast<std::size_t>(st.st_size) < kHeaderSize) {
    return harvest;
  }
  const std::size_t bytes = static_cast<std::size_t>(st.st_size);
  void* base = ::mmap(nullptr, bytes, PROT_READ, MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) return harvest;

  const auto* header = static_cast<const RingHeader*>(base);
  // Validate geometry against the actual file size, not the header's
  // word: a corrupt slot_count must not walk the map out of bounds.
  const std::uint64_t mappable = (bytes - kHeaderSize) / kSlotSize;
  if (header->magic != kMagic || header->version != kVersion ||
      header->slot_size != kSlotSize || header->slot_count == 0 ||
      header->slot_count > mappable) {
    ::munmap(base, bytes);
    return harvest;
  }
  harvest.valid = true;
  harvest.writer_pid = header->writer_pid;
  const std::uint64_t slot_count = header->slot_count;
  const std::uint64_t claimed =
      std::atomic_ref<const std::uint64_t>(header->cursor)
          .load(std::memory_order_acquire);
  harvest.claimed = claimed;
  const unsigned char* slots =
      static_cast<const unsigned char*>(base) + kHeaderSize;

  // Oldest surviving record first. A cursor beyond slot_count means the
  // ring wrapped; everything older was overwritten by design.
  const std::uint64_t first = claimed > slot_count ? claimed - slot_count : 0;
  const std::uint64_t scanned =
      claimed > slot_count ? slot_count : claimed;
  harvest.records.reserve(static_cast<std::size_t>(scanned));
  for (std::uint64_t i = first; i < claimed; ++i) {
    const unsigned char* slot = slots + (i % slot_count) * kSlotSize;
    std::uint32_t len = 0;
    std::uint32_t sum = 0;
    std::memcpy(&len, slot, 4);
    std::memcpy(&sum, slot + 4, 4);
    if (len != sizeof(FlightRecord) ||
        PayloadChecksum(slot + 8, len) != sum) {
      ++harvest.torn;
      continue;
    }
    FlightRecord record;
    std::memcpy(&record, slot + 8, sizeof record);
    harvest.records.push_back(record);
  }
  ::munmap(base, bytes);
  return harvest;
}

std::string FlightRecorder::HarvestToChromeJson(const Harvest& harvest) {
  std::string out;
  out.reserve(256 + harvest.records.size() * 200);
  out.append("{\"traceEvents\":[");
  bool first = true;
  for (const FlightRecord& r : harvest.records) {
    out.append(first ? "\n" : ",\n");
    first = false;
    out.append("{\"name\":");
    AppendJsonString(&out, r.name, sizeof r.name);
    out.append(",\"cat\":");
    AppendJsonString(&out, r.category[0] == '\0' ? "default" : r.category,
                     sizeof r.category);
    out.append(",\"ph\":\"");
    out.push_back(r.phase == 'X' ? 'X' : 'i');
    out.append("\",\"ts\":");
    AppendMicros(&out, r.ts_ns);
    if (r.phase == 'X') {
      out.append(",\"dur\":");
      AppendMicros(&out, r.dur_ns);
    } else {
      out.append(",\"s\":\"t\"");
    }
    char ids[64];
    std::snprintf(ids, sizeof ids, ",\"pid\":%" PRIu64 ",\"tid\":%u",
                  harvest.writer_pid, r.tid);
    out.append(ids);
    const bool has_arg = r.arg_name[0] != '\0';
    if (has_arg || r.trace_id != 0) {
      out.append(",\"args\":{");
      bool inner_first = true;
      if (has_arg) {
        AppendJsonString(&out, r.arg_name, sizeof r.arg_name);
        char value[32];
        std::snprintf(value, sizeof value, ":%" PRIu64, r.arg_value);
        out.append(value);
        inner_first = false;
      }
      if (r.trace_id != 0) {
        if (inner_first) {
          char id[40];
          std::snprintf(id, sizeof id, "\"trace_id\":\"%016" PRIx64 "\"",
                        r.trace_id);
          out.append(id);
        } else {
          AppendHexId(&out, "trace_id", r.trace_id);
        }
        AppendHexId(&out, "span_id", r.span_id);
        AppendHexId(&out, "parent_span_id", r.parent_id);
      }
      out.append("}");
    }
    out.append("}");
  }
  char summary[192];
  std::snprintf(summary, sizeof summary,
                "\n],\"displayTimeUnit\":\"ms\",\"flightRecorder\":{"
                "\"valid\":%s,\"writer_pid\":%" PRIu64
                ",\"claimed\":%" PRIu64 ",\"recovered\":%zu,\"torn\":%" PRIu64
                "}}\n",
                harvest.valid ? "true" : "false", harvest.writer_pid,
                harvest.claimed, harvest.records.size(), harvest.torn);
  out.append(summary);
  return out;
}

void SetGlobalFlightRecorder(FlightRecorder* recorder) {
  g_flight.store(recorder, std::memory_order_release);
}

void FlightRecordEvent(const TraceEvent& event, std::uint32_t tid) {
  FlightRecorder* recorder = g_flight.load(std::memory_order_acquire);
  if (recorder != nullptr) recorder->RecordEvent(event, tid);
}

}  // namespace spta::obs
