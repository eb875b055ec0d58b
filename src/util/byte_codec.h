// The little-endian byte codec of every binary format: the sealed files
// (util/sealed_file.h) and the serve and shard wire frames. A format
// picks its fields and their order; how each field becomes bytes is
// decided here. A reader advances *offset, or returns false when the
// field does not fit in what is left. Inline, because the protocols run
// it on every request and every result.

#ifndef DMC_UTIL_BYTE_CODEC_H_
#define DMC_UTIL_BYTE_CODEC_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace dmc {

static_assert(std::endian::native == std::endian::little,
              "the byte codec copies host integers as little-endian");

template <typename T>
inline void AppendLE(std::string* out, T value) {
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out->append(buf, sizeof(T));
}

template <typename T>
inline bool ReadLE(std::string_view data, size_t* offset, T* value) {
  if (data.size() - *offset < sizeof(T)) return false;
  std::memcpy(value, data.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

/// An f64 rides as its IEEE-754 bits in a u64.
inline void AppendF64(std::string* out, double value) {
  AppendLE<uint64_t>(out, std::bit_cast<uint64_t>(value));
}

inline bool ReadF64(std::string_view data, size_t* offset, double* value) {
  uint64_t bits = 0;
  if (!ReadLE(data, offset, &bits)) return false;
  *value = std::bit_cast<double>(bits);
  return true;
}

/// A string rides as its u32 byte length, then its bytes.
inline void AppendString(std::string* out, std::string_view s) {
  AppendLE<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

inline bool ReadString(std::string_view data, size_t* offset,
                       std::string* s) {
  uint32_t len = 0;
  if (!ReadLE(data, offset, &len)) return false;
  if (data.size() - *offset < len) return false;
  s->assign(data.data() + *offset, len);
  *offset += len;
  return true;
}

/// The one bound for a count read from bytes: true iff `count` records of
/// `record_bytes` each fit after `offset`. A count must pass it before it
/// sizes anything; the division keeps a huge count from wrapping it.
inline bool CountFits(std::string_view data, size_t offset, uint64_t count,
                      size_t record_bytes) {
  return count <= (data.size() - offset) / record_bytes;
}

}  // namespace dmc

#endif  // DMC_UTIL_BYTE_CODEC_H_
