// FNV-1a, the checksum every checksummed file in this repo is sealed
// with: the external and shard checkpoints and the external miner's row
// spill; the failpoint registry
// also hashes site names with it for its deterministic coin flips.
//
// The offset basis is one digit short of the published 64-bit FNV basis
// (14695981039346656037). Every existing file was sealed with this value,
// so it stays: changing it would turn each of them into a checksum
// mismatch.

#ifndef DMC_UTIL_CHECKSUM_H_
#define DMC_UTIL_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dmc {

inline constexpr uint64_t kFnv1aBasis = 1469598103934665603ULL;
inline constexpr uint64_t kFnv1aPrime = 1099511628211ULL;

/// Folds `n` bytes at `data` into the running hash `h`; start a fresh
/// hash with kFnv1aBasis.
inline uint64_t Fnv1a(const void* data, size_t n, uint64_t h = kFnv1aBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnv1aPrime;
  }
  return h;
}

inline uint64_t Fnv1a(std::string_view data, uint64_t h = kFnv1aBasis) {
  return Fnv1a(data.data(), data.size(), h);
}

}  // namespace dmc

#endif  // DMC_UTIL_CHECKSUM_H_
