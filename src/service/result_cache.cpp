#include "service/result_cache.hpp"

#include "common/assert.hpp"

namespace spta::service {

double ResultCache::Stats::HitRatio() const {
  const std::uint64_t lookups = hits + misses;
  return lookups == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(lookups);
}

ResultCache::ResultCache(std::size_t capacity) : capacity_(capacity) {
  SPTA_REQUIRE(capacity >= 1);
}

ResultCache::Body ResultCache::Lookup(std::uint64_t key,
                                      std::uint64_t verifier) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  if (it->second->verifier != verifier) {
    // Detected 64-bit key collision: a different request hashed to the
    // same key. Never serve the other request's result.
    ++collisions_;
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->body;
}

void ResultCache::Insert(std::uint64_t key, std::uint64_t verifier,
                         Body body) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->verifier = verifier;
    it->second->body = std::move(body);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
  }
  lru_.emplace_front(Entry{key, verifier, std::move(body)});
  index_[key] = lru_.begin();
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.collisions = collisions_;
  s.size = lru_.size();
  s.capacity = capacity_;
  return s;
}

}  // namespace spta::service
