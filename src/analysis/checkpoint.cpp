#include "analysis/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>

#include "common/assert.hpp"
#include "common/atomic_file.hpp"
#include "common/hash.hpp"
#include "obs/trace.hpp"

namespace spta::analysis {
namespace {

// v2: run lines grew store-buffer high-water + PRNG consumption fields
// (26 sample fields); v1 journals are rejected as alien rather than
// silently re-running every line as torn.
constexpr char kHeaderMagic[] = "spta-ckpt2";
constexpr char kRunTag[] = "run";

/// Flattens one journalled sample to the numeric fields of its line,
/// excluding the run index (prepended by the caller). CacheStats carries
/// derived-only extras, so accesses/misses per structure is the complete
/// state.
std::array<std::uint64_t, 26> SampleFields(const RunSample& s) {
  const sim::RunResult& d = s.detail;
  return {static_cast<std::uint64_t>(s.path_id),
          d.cycles,
          d.instructions,
          d.il1.accesses,
          d.il1.misses,
          d.dl1.accesses,
          d.dl1.misses,
          d.itlb.accesses,
          d.itlb.misses,
          d.dtlb.accesses,
          d.dtlb.misses,
          d.fpu.operations,
          d.fpu.total_cycles,
          d.store_buffer.stores,
          d.store_buffer.full_stalls,
          d.store_buffer.stall_cycles,
          d.bus.transactions,
          d.bus.busy_cycles,
          d.bus.wait_cycles,
          d.dram.accesses,
          d.dram.row_hits,
          d.dram.refresh_stall_cycles,
          d.store_buffer.high_water,
          d.prng.words,
          d.prng.rejections,
          0 /* reserved */};
}

RunSample SampleFromFields(const std::array<std::uint64_t, 26>& f) {
  RunSample s;
  s.path_id = static_cast<std::uint32_t>(f[0]);
  sim::RunResult& d = s.detail;
  d.cycles = f[1];
  d.instructions = f[2];
  d.il1.accesses = f[3];
  d.il1.misses = f[4];
  d.dl1.accesses = f[5];
  d.dl1.misses = f[6];
  d.itlb.accesses = f[7];
  d.itlb.misses = f[8];
  d.dtlb.accesses = f[9];
  d.dtlb.misses = f[10];
  d.fpu.operations = f[11];
  d.fpu.total_cycles = f[12];
  d.store_buffer.stores = f[13];
  d.store_buffer.full_stalls = f[14];
  d.store_buffer.stall_cycles = f[15];
  d.bus.transactions = f[16];
  d.bus.busy_cycles = f[17];
  d.bus.wait_cycles = f[18];
  d.dram.accesses = f[19];
  d.dram.row_hits = f[20];
  d.dram.refresh_stall_cycles = f[21];
  d.store_buffer.high_water = f[22];
  d.prng.words = f[23];
  d.prng.rejections = f[24];
  s.cycles = static_cast<double>(d.cycles);
  return s;
}

std::uint64_t LineChecksum(const char* tag,
                           std::span<const std::uint64_t> fields) {
  std::uint64_t h = DeriveSeed(0x5eed, tag);
  for (const std::uint64_t f : fields) h = HashCombine(h, f);
  return h;
}

std::string Hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

bool SysError(std::string* error, const char* stage, const std::string& path) {
  if (error != nullptr) {
    *error = std::string(stage) + " " + path + ": " + std::strerror(errno);
  }
  return false;
}

bool WriteAll(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t w = ::write(fd, data.data() + done, data.size() - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(w);
  }
  return true;
}

/// Parses one whitespace-separated journal line into (tag, fields, crc).
/// Returns false on any damage (short line, bad number, missing crc).
bool ParseLine(const std::string& line, std::string* tag,
               std::vector<std::uint64_t>* fields, std::uint64_t* crc) {
  std::istringstream is(line);
  if (!(is >> *tag)) return false;
  fields->clear();
  std::string token;
  bool have_crc = false;
  while (is >> token) {
    if (token.rfind("c=", 0) == 0) {
      char* end = nullptr;
      *crc = std::strtoull(token.c_str() + 2, &end, 16);
      if (end == token.c_str() + 2 || *end != '\0') return false;
      have_crc = true;
      // The checksum is the line terminator; trailing junk after it (the
      // start of a torn successor line) damages the record.
      return (is >> token) ? false : true;
    }
    char* end = nullptr;
    errno = 0;
    const std::uint64_t v = std::strtoull(token.c_str(), &end, 10);
    if (errno != 0 || end == token.c_str() || *end != '\0') return false;
    fields->push_back(v);
  }
  return have_crc;
}

std::string FormatHeaderLine(const CheckpointHeader& h) {
  const std::array<std::uint64_t, 4> fields = {
      h.campaign_seed, h.runs, h.distinct_scenarios, h.workload_digest};
  std::ostringstream os;
  os << kHeaderMagic;
  for (const auto f : fields) os << ' ' << f;
  os << " c=" << Hex(LineChecksum(kHeaderMagic, fields)) << '\n';
  return os.str();
}

std::string FormatRunLine(std::uint64_t run_index, const RunSample& s) {
  const auto sample_fields = SampleFields(s);
  std::vector<std::uint64_t> fields;
  fields.reserve(sample_fields.size() + 1);
  fields.push_back(run_index);
  fields.insert(fields.end(), sample_fields.begin(), sample_fields.end());
  std::ostringstream os;
  os << kRunTag;
  for (const auto f : fields) os << ' ' << f;
  os << " c=" << Hex(LineChecksum(kRunTag, fields)) << '\n';
  return os.str();
}

}  // namespace

CheckpointJournal::~CheckpointJournal() {
  std::string ignored;
  Close(&ignored);
}

bool CheckpointJournal::OpenNew(const std::string& path,
                                const CheckpointHeader& header,
                                std::size_t fsync_interval,
                                std::string* error) {
  SPTA_REQUIRE(fsync_interval >= 1);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) return SysError(error, "open", path);
  fsync_interval_ = fsync_interval;
  appends_since_sync_ = 0;
  if (!WriteAll(fd_, FormatHeaderLine(header)) || !FsyncFd(fd_)) {
    SysError(error, "write header", path);
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  // A brand-new journal file must itself survive a crash.
  FsyncParentDir(path);
  return true;
}

bool CheckpointJournal::OpenResume(const std::string& path,
                                   const CheckpointHeader& header,
                                   std::size_t fsync_interval,
                                   CheckpointLoad* load, std::string* error) {
  SPTA_REQUIRE(fsync_interval >= 1);
  if (!LoadCheckpoint(path, load, error)) return false;
  const CheckpointHeader& h = load->header;
  if (h.campaign_seed != header.campaign_seed || h.runs != header.runs ||
      h.distinct_scenarios != header.distinct_scenarios ||
      h.workload_digest != header.workload_digest) {
    if (error != nullptr) {
      *error = path +
               ": journal belongs to a different campaign (seed/runs/"
               "scenarios/workload mismatch); refusing to resume";
    }
    return false;
  }
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) return SysError(error, "open", path);
  fsync_interval_ = fsync_interval;
  appends_since_sync_ = 0;
  return true;
}

bool CheckpointJournal::Append(std::uint64_t run_index, const RunSample& sample,
                               std::string* error) {
  SPTA_REQUIRE(IsOpen());
  SPTA_OBS_SPAN_ARG("checkpoint", "append", "run", run_index);
  if (!WriteAll(fd_, FormatRunLine(run_index, sample))) {
    return SysError(error, "append", "journal");
  }
  if (++appends_since_sync_ >= fsync_interval_) {
    appends_since_sync_ = 0;
    SPTA_OBS_SPAN("checkpoint", "fsync");
    if (!FsyncFd(fd_)) return SysError(error, "fsync", "journal");
  }
  return true;
}

bool CheckpointJournal::Close(std::string* error) {
  if (fd_ < 0) return true;
  bool ok = true;
  if (appends_since_sync_ > 0 && !FsyncFd(fd_)) {
    ok = SysError(error, "fsync", "journal");
  }
  ::close(fd_);
  fd_ = -1;
  return ok;
}

bool LoadCheckpoint(const std::string& path, CheckpointLoad* out,
                    std::string* error) {
  SPTA_OBS_SPAN("checkpoint", "load");
  *out = CheckpointLoad{};
  std::ifstream in(path);
  if (!in) return SysError(error, "open", path);

  std::string line;
  std::string tag;
  std::vector<std::uint64_t> fields;
  std::uint64_t crc = 0;

  // Header: the one line we cannot tolerate damage to (it binds the
  // campaign identity every record is interpreted under).
  if (!std::getline(in, line) || !ParseLine(line, &tag, &fields, &crc) ||
      tag != kHeaderMagic || fields.size() != 4 ||
      crc != LineChecksum(kHeaderMagic, fields)) {
    if (error != nullptr) *error = path + ": damaged or alien journal header";
    return false;
  }
  out->header.campaign_seed = fields[0];
  out->header.runs = fields[1];
  out->header.distinct_scenarios = fields[2];
  out->header.workload_digest = fields[3];
  out->samples.assign(out->header.runs, std::nullopt);

  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (!ParseLine(line, &tag, &fields, &crc) || tag != kRunTag ||
        fields.size() != 27 || crc != LineChecksum(kRunTag, fields)) {
      // A torn write: the record never durably happened. Drop it — the
      // run will simply be re-executed on resume.
      ++out->torn_lines;
      continue;
    }
    const std::uint64_t run_index = fields[0];
    if (run_index >= out->header.runs) {
      ++out->torn_lines;
      continue;
    }
    std::array<std::uint64_t, 26> sample_fields;
    std::copy(fields.begin() + 1, fields.end(), sample_fields.begin());
    if (!out->samples[run_index].has_value()) ++out->completed;
    out->samples[run_index] = SampleFromFields(sample_fields);
  }
  return true;
}

std::uint64_t TvcaWorkloadDigest() { return DeriveSeed(0, "tvca-workload"); }

std::uint64_t FixedTraceWorkloadDigest(const trace::Trace& t) {
  return HashCombine(DeriveSeed(0, "fixed-trace-workload"),
                     HashCombine(t.path_signature, t.records.size()));
}

}  // namespace spta::analysis
