// The envelope of every sealed file: external and shard checkpoints,
// rule-index snapshots and binary matrices (DESIGN §5.3 lists them).
//
//   magic  body  u64 FNV-1a of magic and body  "DMCE"
//
// A writer appends its magic and body, then calls AppendSeal. A reader
// calls CheckSealedHeader, parses the body (bounding every count with
// CountFits, util/byte_codec.h), then calls CheckSeal where the body
// ended. Parsing first reports a damaged body at the field or row where
// it broke; the seal then catches what the parse cannot see. The checks
// here fail with kDataLoss "<what>: ... at byte N".

#ifndef DMC_UTIL_SEALED_FILE_H_
#define DMC_UTIL_SEALED_FILE_H_

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "util/byte_codec.h"
#include "util/checksum.h"
#include "util/status.h"
#include "util/statusor.h"

namespace dmc {

inline constexpr std::string_view kSealEndMagic = "DMCE";
/// Bytes the seal adds after the body: the checksum and the end magic.
inline constexpr size_t kSealBytes = sizeof(uint64_t) + kSealEndMagic.size();

namespace internal_sealed_file {

inline Status Rejected(std::string_view what, const std::string& detail,
                       size_t offset) {
  return DataLossError(std::string(what) + ": " + detail + " at byte " +
                       std::to_string(offset));
}

}  // namespace internal_sealed_file

/// Appends the checksum of every byte of `image`, then the end magic.
inline void AppendSeal(std::string* image) {
  AppendLE<uint64_t>(image, Fnv1a(*image));
  image->append(kSealEndMagic);
}

/// Checks that `data` holds `magic`, at least `min_body_bytes` and the
/// seal, and starts with `magic`.
[[nodiscard]] inline Status CheckSealedHeader(std::string_view data,
                                              std::string_view magic,
                                              size_t min_body_bytes,
                                              std::string_view what) {
  using internal_sealed_file::Rejected;
  const size_t min_bytes = magic.size() + min_body_bytes + kSealBytes;
  if (data.size() < min_bytes) {
    return Rejected(what, "truncated below " + std::to_string(min_bytes) +
                              " bytes", data.size());
  }
  if (data.substr(0, magic.size()) != magic) {
    return Rejected(what, "bad magic", 0);
  }
  return Status::OK();
}

/// Checks the seal of a body that ended at `body_end`: the checksum, the
/// end magic, and that no byte follows it.
[[nodiscard]] inline Status CheckSeal(std::string_view data, size_t body_end,
                                      std::string_view what) {
  using internal_sealed_file::Rejected;
  size_t offset = body_end;
  uint64_t stored = 0;
  if (!ReadLE(data, &offset, &stored)) {
    return Rejected(what, "truncated before the checksum", body_end);
  }
  const uint64_t actual = Fnv1a(data.substr(0, body_end));
  if (stored != actual) {
    return Rejected(what, "checksum mismatch (stored " +
                              std::to_string(stored) + ", computed " +
                              std::to_string(actual) + ")", body_end);
  }
  if (data.substr(offset, kSealEndMagic.size()) != kSealEndMagic) {
    return Rejected(what, "missing end magic", offset);
  }
  offset += kSealEndMagic.size();
  if (offset != data.size()) {
    return Rejected(what, std::to_string(data.size() - offset) +
                              " trailing bytes after the end magic", offset);
  }
  return Status::OK();
}

/// The bytes of the file at `path`; kIOError "cannot open <noun>: <path>"
/// when it cannot be read.
[[nodiscard]] inline StatusOr<std::string> ReadWholeFile(
    const std::string& path, std::string_view noun) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return IOError("cannot open " + std::string(noun) + ": " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return IOError("read failed for " + std::string(noun) + ": " + path);
  }
  return buffer.str();
}

}  // namespace dmc

#endif  // DMC_UTIL_SEALED_FILE_H_
