// Crash-safe campaign checkpointing: an append-only, fsync'd run journal.
//
// Long measurement campaigns (hours of simulation, or real-board runs)
// must survive a crash without re-measuring everything. Because every
// run's sample is a pure function of (campaign config, run index) — the
// PR-1 seed-derivation contract — a journal of completed (index, sample)
// pairs is a complete restart state: --resume restores the journalled
// runs and re-executes only the missing indices, bit-identically to an
// uninterrupted campaign.
//
// Durability discipline:
//   - the journal is append-only; each record is one text line ending in
//     its own checksum, so a torn final line (crash mid-write) is
//     detected and dropped instead of half-ingested,
//   - appends are fsync'd every `fsync_interval` records (default: every
//     record),
//   - the header binds the campaign identity (seed, run count, scenario
//     count, workload digest); --resume against a journal written for a
//     different campaign is refused,
//   - final CSV exports go through the tmp-file + fsync + rename writers
//     (sample_io), so the published artifact is never truncated.
//
// analysis::RunCampaign drives the journal; the campaign identity
// (CheckpointHeader, which a Workload yields) and the journal options
// (CheckpointOptions, which a CampaignPlan holds) live in campaign.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/campaign.hpp"
#include "trace/record.hpp"

namespace spta::analysis {

/// Read-side result of scanning a journal.
struct CheckpointLoad {
  CheckpointHeader header;
  /// Slot r holds run r's sample when the journal recorded it.
  std::vector<std::optional<RunSample>> samples;
  std::size_t completed = 0;
  /// Damaged trailing/interior lines that were dropped (torn writes).
  std::size_t torn_lines = 0;
};

/// Append-side handle. One writer at a time; not thread-safe (callers
/// serialize appends — the campaign runner holds a mutex).
class CheckpointJournal {
 public:
  CheckpointJournal() = default;
  ~CheckpointJournal();
  CheckpointJournal(const CheckpointJournal&) = delete;
  CheckpointJournal& operator=(const CheckpointJournal&) = delete;

  /// Creates/truncates `path`, writes + fsyncs the header.
  bool OpenNew(const std::string& path, const CheckpointHeader& header,
               std::size_t fsync_interval, std::string* error);

  /// Resumes `path`: scans it into `load` (LoadCheckpoint), refuses a
  /// journal whose header is not `header` (another campaign's), and
  /// opens it for appending. A refused journal is left untouched.
  bool OpenResume(const std::string& path, const CheckpointHeader& header,
                  std::size_t fsync_interval, CheckpointLoad* load,
                  std::string* error);

  /// Appends one completed run. fsync'd per the configured interval.
  bool Append(std::uint64_t run_index, const RunSample& sample,
              std::string* error);

  /// Final fsync + close. Safe to call twice.
  bool Close(std::string* error);

  bool IsOpen() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
  std::size_t fsync_interval_ = 1;
  std::size_t appends_since_sync_ = 0;
};

/// Scans `path`, dropping damaged lines. Fails only on unreadable files
/// or a damaged/alien header (a journal we cannot trust at all).
bool LoadCheckpoint(const std::string& path, CheckpointLoad* out,
                    std::string* error);

/// Workload digests for the two campaign kinds.
std::uint64_t TvcaWorkloadDigest();
std::uint64_t FixedTraceWorkloadDigest(const trace::Trace& t);

}  // namespace spta::analysis
