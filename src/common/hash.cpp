#include "common/hash.hpp"

namespace spta {

std::uint64_t DeriveSeed(std::uint64_t master, std::uint64_t index) {
  return Mix64(master + 0x9e3779b97f4a7c15ULL * (index + 1));
}

std::uint64_t DeriveSeed(std::uint64_t master, const char* tag) {
  std::uint64_t h = master;
  for (const char* p = tag; *p != '\0'; ++p) {
    h = HashCombine(h, static_cast<std::uint64_t>(
                           static_cast<unsigned char>(*p)));
  }
  return Mix64(h);
}

}  // namespace spta
