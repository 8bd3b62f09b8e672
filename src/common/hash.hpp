// Deterministic, seedable mixing functions.
//
// These are used (a) to derive independent sub-seeds from a campaign master
// seed and (b) as the parametric hash inside hash-based random cache
// placement. They are fully specified here (no std::hash, whose value is
// implementation-defined) so that simulation results are bit-reproducible
// across compilers and platforms.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace spta {

/// SplitMix64 finalizer: a full-avalanche 64-bit mix (Stafford variant 13).
/// Bijective on uint64, so distinct inputs never collide.
inline std::uint64_t Mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Combines a running hash with a new value (order-sensitive). Inline:
/// digests chain it once per word (the service's cache key hashes every
/// sample), where an out-of-line call costs more than the mixing.
inline std::uint64_t HashCombine(std::uint64_t seed, std::uint64_t value) {
  // Boost-style combiner lifted to 64 bits with a golden-ratio constant.
  return seed ^ (Mix64(value) + 0x9e3779b97f4a7c15ULL + (seed << 12) +
                 (seed >> 4));
}

/// Derives the `index`-th independent sub-seed from `master`.
/// Guaranteed deterministic; used to give every platform component and every
/// measurement run its own seed without correlation.
std::uint64_t DeriveSeed(std::uint64_t master, std::uint64_t index);

/// Derives a sub-seed from a master seed and a component name tag.
std::uint64_t DeriveSeed(std::uint64_t master, const char* tag);

/// Two independently constructed 64-bit running hashes over one value
/// stream. Single 64-bit digests over arbitrarily long inputs are not
/// injective; consumers that must never act on a colliding digest (the
/// service result cache) mix every value into two decorrelated
/// accumulators and require BOTH to match. The second stream
/// pre-whitens each value with an odd multiplier so the two hashes never
/// see the same input sequence.
struct DualHash {
  std::uint64_t lo = 0x243f6a8885a308d3ULL;  // pi fractional bits
  std::uint64_t hi = 0x13198a2e03707344ULL;

  void Mix(std::uint64_t value) {
    lo = HashCombine(lo, value);
    hi = HashCombine(hi, value * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL);
  }

  bool operator==(const DualHash& other) const {
    return lo == other.lo && hi == other.hi;
  }
  bool operator!=(const DualHash& other) const { return !(*this == other); }
};

/// DualHash over raw bytes: length first, then 8-byte little-endian words,
/// then the zero-padded tail. Deterministic across platforms (byte order
/// of the words does not matter for collision resistance, and we only ever
/// compare digests produced by this same function). Used wherever bytes —
/// not structured values — are the content being addressed: the service's
/// request-routing digest, the memoized warm path, and the persistent
/// result-cache entry checksum.
inline DualHash HashBytes(std::string_view bytes) {
  DualHash digest;
  digest.Mix(bytes.size());
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, 8);
    digest.Mix(word);
  }
  if (i < bytes.size()) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
    digest.Mix(tail);
  }
  return digest;
}

}  // namespace spta
