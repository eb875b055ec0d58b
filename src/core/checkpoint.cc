#include "core/checkpoint.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "matrix/row_spill.h"
#include "util/atomic_io.h"
#include "util/checksum.h"
#include "util/failpoint.h"

namespace dmc {

namespace {

constexpr char kMagic[8] = {'D', 'M', 'C', 'C', 'K', 'P', 'T', '\n'};
constexpr char kEndMagic[4] = {'D', 'M', 'C', 'E'};

template <typename T>
void AppendLE(std::string* out, T value) {
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out->append(buf, sizeof(T));
}

template <typename T>
bool ReadLE(const std::string& data, size_t* offset, T* value) {
  if (data.size() - *offset < sizeof(T)) return false;
  std::memcpy(value, data.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

Status Corrupt(const std::string& path, const std::string& what) {
  return DataLossError("checkpoint " + path + ": " + what);
}

}  // namespace

StatusOr<FileFingerprint> FingerprintFile(const std::string& path) {
  if (fail::Enabled()) {
    DMC_RETURN_IF_ERROR(fail::InjectStatus("checkpoint.fingerprint"));
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return IOError("cannot open for fingerprint: " + path);
  FileFingerprint fp;
  fp.hash = kFnv1aBasis;
  char buf[1 << 16];
  while (in) {
    in.read(buf, sizeof(buf));
    const std::streamsize n = in.gcount();
    if (n <= 0) break;
    fp.hash = Fnv1a(buf, static_cast<size_t>(n), fp.hash);
    fp.bytes += static_cast<uint64_t>(n);
  }
  if (in.bad()) return IOError("read failed while fingerprinting " + path);
  return fp;
}

std::string ExternalBucketPath(const std::string& work_dir, int bucket) {
  return work_dir + "/dmc_bucket_" + std::to_string(bucket) + ".spill";
}

Status WriteCheckpointFile(const ExternalCheckpoint& cp,
                           const std::string& path) {
  if (fail::Enabled()) {
    DMC_RETURN_IF_ERROR(fail::InjectStatus("checkpoint.write"));
  }
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  AppendLE<uint32_t>(&out, kCheckpointVersion);
  AppendLE<uint64_t>(&out, cp.input.bytes);
  AppendLE<uint64_t>(&out, cp.input.hash);
  AppendLE<uint8_t>(&out, cp.bucketed ? 1 : 0);
  AppendLE<uint32_t>(&out, cp.num_columns);
  AppendLE<uint64_t>(&out, cp.num_rows);
  for (uint32_t ones : cp.column_ones) AppendLE<uint32_t>(&out, ones);
  AppendLE<uint32_t>(&out, static_cast<uint32_t>(cp.buckets.size()));
  for (const auto& b : cp.buckets) {
    AppendLE<int32_t>(&out, b.id);
    AppendLE<uint64_t>(&out, b.rows);
    AppendLE<uint64_t>(&out, b.bytes);
    AppendLE<uint64_t>(&out, b.digest);
  }
  AppendLE<uint64_t>(&out, Fnv1a(out));
  out.append(kEndMagic, sizeof(kEndMagic));
  return AtomicWriteFile(path, out);
}

StatusOr<ExternalCheckpoint> ReadCheckpointFile(const std::string& path) {
  if (fail::Enabled()) {
    DMC_RETURN_IF_ERROR(fail::InjectStatus("checkpoint.read"));
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return IOError("cannot open checkpoint: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return IOError("read failed for checkpoint: " + path);
  const std::string data = buffer.str();

  if (data.size() < sizeof(kMagic) + 4 + 8 + 8 + 1 + 4 + 8 + 4 + 8 + 4) {
    return Corrupt(path, "truncated (" + std::to_string(data.size()) +
                             " bytes)");
  }
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Corrupt(path, "bad magic");
  }
  size_t offset = sizeof(kMagic);
  uint32_t version = 0;
  (void)ReadLE(data, &offset, &version);
  if (version != kCheckpointVersion) {
    return Corrupt(path, "unsupported version " + std::to_string(version));
  }

  ExternalCheckpoint cp;
  uint8_t bucketed = 0;
  if (!ReadLE(data, &offset, &cp.input.bytes) ||
      !ReadLE(data, &offset, &cp.input.hash) ||
      !ReadLE(data, &offset, &bucketed) ||
      !ReadLE(data, &offset, &cp.num_columns) ||
      !ReadLE(data, &offset, &cp.num_rows)) {
    return Corrupt(path, "truncated header");
  }
  cp.bucketed = bucketed != 0;
  // Guard the vector resize against a corrupt column count: the header
  // cannot legitimately claim more u32s than bytes left in the file.
  if (static_cast<uint64_t>(cp.num_columns) * 4 > data.size() - offset) {
    return Corrupt(path, "column count " + std::to_string(cp.num_columns) +
                             " exceeds file size");
  }
  cp.column_ones.resize(cp.num_columns);
  for (uint32_t& ones : cp.column_ones) {
    if (!ReadLE(data, &offset, &ones)) {
      return Corrupt(path, "truncated in column_ones");
    }
  }
  uint32_t bucket_count = 0;
  if (!ReadLE(data, &offset, &bucket_count)) {
    return Corrupt(path, "truncated before bucket list");
  }
  if (static_cast<uint64_t>(bucket_count) * 28 > data.size() - offset) {
    return Corrupt(path, "bucket count " + std::to_string(bucket_count) +
                             " exceeds file size");
  }
  cp.buckets.resize(bucket_count);
  for (auto& b : cp.buckets) {
    if (!ReadLE(data, &offset, &b.id) || !ReadLE(data, &offset, &b.rows) ||
        !ReadLE(data, &offset, &b.bytes) || !ReadLE(data, &offset, &b.digest)) {
      return Corrupt(path, "truncated in bucket list");
    }
  }
  const size_t body_end = offset;
  uint64_t stored = 0;
  if (!ReadLE(data, &offset, &stored)) {
    return Corrupt(path, "truncated before checksum");
  }
  const uint64_t actual = Fnv1a(data.data(), body_end);
  if (stored != actual) {
    return Corrupt(path, "checksum mismatch (stored " + std::to_string(stored) +
                             ", computed " + std::to_string(actual) + ")");
  }
  if (data.size() - offset != sizeof(kEndMagic) ||
      std::memcmp(data.data() + offset, kEndMagic, sizeof(kEndMagic)) != 0) {
    return Corrupt(path, "missing end magic");
  }
  return cp;
}

Status ValidateCheckpoint(const ExternalCheckpoint& cp,
                          const std::string& input_path,
                          const std::string& work_dir) {
  auto fp = FingerprintFile(input_path);
  if (!fp.ok()) return fp.status();
  if (!(*fp == cp.input)) {
    return FailedPreconditionError(
        "checkpoint is stale: input " + input_path +
        " does not match the fingerprint recorded at checkpoint time");
  }
  uint64_t rows = 0;
  for (const auto& b : cp.buckets) {
    const std::string bucket_path = ExternalBucketPath(work_dir, b.id);
    std::ifstream in(bucket_path, std::ios::binary);
    if (!in) {
      return DataLossError("checkpoint bucket file missing: " + bucket_path);
    }
    auto spill = ReadRowSpill(in, bucket_path, cp.num_columns, nullptr);
    if (!spill.ok()) return spill.status();
    if (spill->rows != b.rows || spill->bytes != b.bytes ||
        spill->digest != b.digest) {
      return DataLossError(
          "checkpoint bucket file " + bucket_path + " holds " +
          std::to_string(spill->rows) + " rows in " +
          std::to_string(spill->bytes) + " bytes, expected " +
          std::to_string(b.rows) + " rows in " + std::to_string(b.bytes) +
          " bytes with the recorded digest");
    }
    rows += b.rows;
  }
  if (cp.bucketed && rows != cp.num_rows) {
    return DataLossError("checkpoint bucket rows sum to " +
                         std::to_string(rows) + ", expected " +
                         std::to_string(cp.num_rows));
  }
  return Status::OK();
}

}  // namespace dmc
