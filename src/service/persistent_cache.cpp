#include "service/persistent_cache.hpp"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/atomic_file.hpp"

namespace spta::service {
namespace {

constexpr std::string_view kEntryMagic = "sptac1";
constexpr std::string_view kEntrySuffix = ".sptac";

std::string Hex16(std::uint64_t value) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

bool ParseHex16(std::string_view s, std::uint64_t* out) {
  if (s.size() != 16) return false;
  std::uint64_t value = 0;
  for (const char c : s) {
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      return false;
    }
    value = (value << 4) | digit;
  }
  *out = value;
  return true;
}

bool ParseDecimal(std::string_view s, std::uint64_t* out) {
  if (s.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

}  // namespace

DualHash PersistentResultCache::BodyDigest(std::string_view body) {
  return HashBytes(body);
}

std::string PersistentResultCache::EntryFileName(std::uint64_t key) {
  return Hex16(key) + std::string(kEntrySuffix);
}

std::string PersistentResultCache::EncodeEntry(std::uint64_t key,
                                               std::uint64_t verifier,
                                               std::string_view body) {
  const DualHash digest = BodyDigest(body);
  std::string out;
  out.reserve(body.size() + 96);
  out.append(kEntryMagic);
  out.push_back(' ');
  out += Hex16(key);
  out.push_back(' ');
  out += Hex16(verifier);
  out.push_back(' ');
  out += std::to_string(body.size());
  out.push_back(' ');
  out += Hex16(digest.lo);
  out.push_back(' ');
  out += Hex16(digest.hi);
  out.push_back('\n');
  out.append(body);
  return out;
}

bool PersistentResultCache::DecodeEntry(std::string_view contents,
                                        std::uint64_t* key,
                                        std::uint64_t* verifier,
                                        std::string* body) {
  const std::size_t nl = contents.find('\n');
  if (nl == std::string_view::npos) return false;
  const std::string_view header = contents.substr(0, nl);
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos < header.size()) {
    const std::size_t end = header.find(' ', pos);
    tokens.push_back(header.substr(
        pos, (end == std::string_view::npos ? header.size() : end) - pos));
    if (end == std::string_view::npos) break;
    pos = end + 1;
  }
  if (tokens.size() != 6 || tokens[0] != kEntryMagic) return false;
  std::uint64_t nbytes = 0;
  DualHash recorded;
  if (!ParseHex16(tokens[1], key) || !ParseHex16(tokens[2], verifier) ||
      !ParseDecimal(tokens[3], &nbytes) ||
      !ParseHex16(tokens[4], &recorded.lo) ||
      !ParseHex16(tokens[5], &recorded.hi)) {
    return false;
  }
  const std::string_view raw = contents.substr(nl + 1);
  // Exact-length check: a truncated OR padded file is equally invalid.
  if (raw.size() != nbytes) return false;
  if (BodyDigest(raw) != recorded) return false;
  body->assign(raw);
  return true;
}

void PersistentResultCache::ForgetLocked(std::uint64_t key) {
  const auto it = sizes_.find(key);
  if (it == sizes_.end()) return;
  total_bytes_ -= std::min(total_bytes_, it->second.bytes);
  lru_.erase(it->second.where);
  sizes_.erase(it);
}

void PersistentResultCache::RememberLocked(std::uint64_t key,
                                           std::uint64_t bytes) {
  ForgetLocked(key);
  lru_.push_back(key);
  sizes_[key] = IndexEntry{std::prev(lru_.end()), bytes};
  total_bytes_ += bytes;
}

bool PersistentResultCache::EvictOneLocked() {
  if (lru_.empty()) return false;
  const std::uint64_t victim = lru_.front();
  const std::uint64_t bytes = sizes_.at(victim).bytes;
  // A single unlink is the whole eviction: atomic, crash-safe, and a
  // racing reader that already opened the file keeps its (valid) copy.
  const std::string path = dir_ + "/" + EntryFileName(victim);
  ::unlink(path.c_str());
  ForgetLocked(victim);
  ++stats_.evicted;
  stats_.evicted_bytes += bytes;
  return true;
}

bool PersistentResultCache::Put(std::uint64_t key, std::uint64_t verifier,
                                std::string_view body) {
  const std::string contents = EncodeEntry(key, verifier, body);
  const std::string path = dir_ + "/" + EntryFileName(key);
  const std::uint64_t entry_bytes = contents.size();
  std::lock_guard<std::mutex> lock(mutex_);
  if (stats_.degraded != 0) return false;  // Sticky memory-only mode.
  // Overwriting an existing key frees its old footprint first, so the
  // budget math below sees the true post-write total.
  ForgetLocked(key);
  if (limits_.max_bytes > 0) {
    while (total_bytes_ + entry_bytes > limits_.max_bytes &&
           EvictOneLocked()) {
    }
  }
  bool simulated_enospc =
      limits_.quota_bytes > 0 &&
      total_bytes_ + entry_bytes > limits_.quota_bytes;
  std::string error;
  errno = 0;
  bool ok = !simulated_enospc && AtomicWriteFile(path, contents, &error);
  int saved_errno = simulated_enospc ? ENOSPC : errno;
  if (!ok && (saved_errno == ENOSPC || saved_errno == EDQUOT)) {
    // Full device: reclaim the oldest entry and retry exactly once. More
    // aggressive reclamation is pointless — if one eviction doesn't make
    // room for one entry, the device is full of someone else's data.
    if (EvictOneLocked()) {
      simulated_enospc = limits_.quota_bytes > 0 &&
                         total_bytes_ + entry_bytes > limits_.quota_bytes;
      errno = 0;
      ok = !simulated_enospc && AtomicWriteFile(path, contents, &error);
      saved_errno = simulated_enospc ? ENOSPC : errno;
    }
  }
  if (!ok) {
    ++stats_.store_failures;
    if (saved_errno == ENOSPC || saved_errno == EDQUOT) {
      ++stats_.enospc_failures;
      stats_.degraded = 1;
    } else if (saved_errno == EIO) {
      ++stats_.eio_failures;
      stats_.degraded = 1;
    }
    return false;
  }
  RememberLocked(key, entry_bytes);
  ++stats_.stored;
  return true;
}

std::size_t PersistentResultCache::LoadAll(
    const std::function<bool(std::uint64_t, std::uint64_t, std::string)>&
        sink) {
  std::vector<std::string> names;
  if (DIR* dir = ::opendir(dir_.c_str())) {
    while (const dirent* entry = ::readdir(dir)) {
      const std::string_view name = entry->d_name;
      if (name.size() > kEntrySuffix.size() &&
          name.substr(name.size() - kEntrySuffix.size()) == kEntrySuffix) {
        names.emplace_back(name);
      }
    }
    ::closedir(dir);
  }
  // readdir order is filesystem-dependent; sort so which entries survive
  // the load_max_entries cap is deterministic across runs and machines.
  std::sort(names.begin(), names.end());
  // A rejected file (oversized, corrupt or unusable) is unlinked once
  // counted: it is outside the eviction index, so nothing else would ever
  // remove it. Sibling spta_fleet children may share the directory; if one
  // renames a fresh entry over this name between our read and the unlink,
  // that valid entry is lost and recomputed, never misserved.
  const auto reject = [this](const std::string& path, std::uint64_t* count) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++*count;
    }
    ::unlink(path.c_str());
  };
  std::size_t fed = 0;
  std::uint64_t considered = 0;
  for (const std::string& name : names) {
    const std::string path = dir_ + "/" + name;
    // Size gate by stat() BEFORE reading: an oversized (possibly
    // adversarial) file must not be pulled into memory at all.
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.rejected;
      continue;
    }
    if (static_cast<std::uint64_t>(st.st_size) >
        limits_.load_max_entry_bytes) {
      reject(path, &stats_.load_skipped_oversize);
      continue;
    }
    if (considered >= limits_.load_max_entries) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.load_skipped_overflow;
      continue;
    }
    ++considered;
    std::ifstream in(path, std::ios::binary);
    std::ostringstream contents;
    contents << in.rdbuf();
    std::uint64_t key = 0;
    std::uint64_t verifier = 0;
    std::string body;
    if (!in || !DecodeEntry(contents.str(), &key, &verifier, &body)) {
      reject(path, &stats_.rejected);
      continue;
    }
    // Sink runs unlocked: it may itself store (re-encode) entries.
    if (!sink(key, verifier, std::move(body))) {
      reject(path, &stats_.rejected);
      continue;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.loaded;
    // Seed the eviction index so a warm-started store knows its
    // footprint; load order stands in for write order.
    RememberLocked(key, static_cast<std::uint64_t>(st.st_size));
    ++fed;
  }
  return fed;
}

bool PersistentResultCache::degraded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_.degraded != 0;
}

PersistentResultCache::Stats PersistentResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace spta::service
