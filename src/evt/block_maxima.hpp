// Block-maxima extraction for MBPTA.
//
// The Cucu-Grosjean MBPTA protocol groups the time-ordered execution-time
// sample into consecutive blocks of size b and keeps each block's maximum;
// EVT then models the maxima. A trailing partial block is discarded (it
// would bias the maxima low).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace spta::evt {

/// Returns the maxima of consecutive `block_size`-sized blocks of `xs`,
/// discarding a trailing partial block. Requires block_size >= 1 and at
/// least one complete block.
std::vector<double> BlockMaxima(std::span<const double> xs,
                                std::size_t block_size);

/// Suggests a block size giving at least `min_blocks` maxima while keeping
/// blocks as large as possible (larger blocks = better EVT convergence).
/// Requires sample_size >= min_blocks. Returns at least 1.
std::size_t SuggestBlockSize(std::size_t sample_size,
                             std::size_t min_blocks = 30);

}  // namespace spta::evt
