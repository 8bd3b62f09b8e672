// Kernel mining: detecting repeated basic-block sequences in a trace.
//
// Campaign traces are dominated by loops — the same record sequence (one
// or a few basic blocks) retired hundreds of times back to back. Mining
// finds those repetitions and rewrites the trace as a segmented view
//
//   prologue . kernel x N . epilogue
//
// without touching the records themselves: a Segment is a (begin, length,
// iterations) window into the original record array, so the concatenation
// of all segments replays the trace exactly. INGEST and `spta_cli trace
// info|mine` report the segmentation.
//
// Detection is the classic back-edge heuristic: scanning left to right,
// a pc that recurs at distance p is a loop-candidate period; the candidate
// is verified by field-wise record comparison (records[i-p, i) ==
// records[i, i+p)), extended greedily to the maximal run of consecutive
// equal periods, and emitted as a kernel. Verification compares actual
// records, so mining never mislabels: every claimed iteration is exactly
// equal to the kernel body.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/hash.hpp"
#include "trace/record.hpp"

namespace spta::atlas {

/// A distinct kernel body discovered by mining.
struct KernelInfo {
  /// Content digest of the body records (kernel identity across traces).
  DualHash digest;
  /// First occurrence of the body in the record array.
  std::size_t body_begin = 0;
  /// Body length in records.
  std::size_t length = 0;
  /// Total iterations across all segments referencing this kernel.
  std::size_t iterations = 0;
};

inline constexpr std::uint32_t kNoKernel =
    std::numeric_limits<std::uint32_t>::max();

/// One window of the segmented view. Plain spans have iterations == 1 and
/// kernel == kNoKernel; kernel segments repeat records
/// [begin, begin + length) exactly `iterations` times, i.e. they cover
/// records [begin, begin + length * iterations).
struct Segment {
  std::size_t begin = 0;
  std::size_t length = 0;
  std::size_t iterations = 1;
  std::uint32_t kernel = kNoKernel;

  std::size_t records_covered() const { return length * iterations; }
};

struct Segmentation {
  std::vector<Segment> segments;
  std::vector<KernelInfo> kernels;
  /// Records covered by all segments (== trace record count; invariant).
  std::size_t total_records = 0;

  /// Records inside kernel segments with >= 2 iterations.
  std::size_t KernelRecords() const {
    std::size_t total = 0;
    for (const Segment& s : segments) {
      if (s.kernel != kNoKernel) total += s.records_covered();
    }
    return total;
  }
};

struct MineOptions {
  /// Longest kernel body considered (bounds verification cost).
  std::size_t max_period = 4096;
  /// Minimum iterations for a repetition to be emitted as a kernel.
  std::size_t min_iterations = 4;
};

/// Mines `t` into a segmented view. Deterministic; the returned segments
/// partition [0, records.size()) in order.
Segmentation MineKernels(const trace::Trace& t,
                         const MineOptions& options = {});

/// Content digest of one kernel body (the identity used by the
/// service-side kernel-table cache).
DualHash KernelDigest(const trace::TraceRecord* body, std::size_t length);

}  // namespace spta::atlas
