#include "core/checkpoint.h"

#include <fstream>

#include "matrix/row_spill.h"
#include "util/atomic_io.h"
#include "util/byte_codec.h"
#include "util/checksum.h"
#include "util/failpoint.h"
#include "util/sealed_file.h"

namespace dmc {

namespace {

constexpr std::string_view kMagic = "DMCCKPT\n";
/// Bytes of one bucket entry: i32 id, u64 rows, u64 bytes, u64 digest.
constexpr size_t kBucketBytes = 4 + 3 * 8;

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
  std::string out(kMagic);
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
  AppendSeal(&out);
  return AtomicWriteFile(path, out);
}

StatusOr<ExternalCheckpoint> ReadCheckpointFile(const std::string& path) {
  if (fail::Enabled()) {
    DMC_RETURN_IF_ERROR(fail::InjectStatus("checkpoint.read"));
  }
  DMC_ASSIGN_OR_RETURN(const std::string data,
                       ReadWholeFile(path, "checkpoint"));
  const std::string what = "checkpoint " + path;
  // The fixed fields: version through num_rows, then the bucket count.
  DMC_RETURN_IF_ERROR(
      CheckSealedHeader(data, kMagic, 4 + 8 + 8 + 1 + 4 + 8 + 4, what));
  size_t offset = kMagic.size();
  uint32_t version = 0;
  (void)ReadLE(data, &offset, &version);
  if (version != kCheckpointVersion) {
    return DataLossError(what + ": unsupported version " +
                         std::to_string(version));
  }

  ExternalCheckpoint cp;
  uint8_t bucketed = 0;
  (void)ReadLE(data, &offset, &cp.input.bytes);  // length pre-checked above
  (void)ReadLE(data, &offset, &cp.input.hash);
  (void)ReadLE(data, &offset, &bucketed);
  (void)ReadLE(data, &offset, &cp.num_columns);
  (void)ReadLE(data, &offset, &cp.num_rows);
  cp.bucketed = bucketed != 0;
  // A corrupt column or bucket count must not drive a resize: the header
  // cannot claim more entries than bytes left in the file.
  if (!CountFits(data, offset, cp.num_columns, sizeof(uint32_t))) {
    return DataLossError(what + ": column count " +
                         std::to_string(cp.num_columns) + " exceeds file size");
  }
  cp.column_ones.resize(cp.num_columns);
  for (uint32_t& ones : cp.column_ones) (void)ReadLE(data, &offset, &ones);
  uint32_t bucket_count = 0;
  if (!ReadLE(data, &offset, &bucket_count)) {
    return DataLossError(what + ": truncated before bucket list");
  }
  if (!CountFits(data, offset, bucket_count, kBucketBytes)) {
    return DataLossError(what + ": bucket count " +
                         std::to_string(bucket_count) + " exceeds file size");
  }
  cp.buckets.resize(bucket_count);
  for (auto& b : cp.buckets) {
    (void)ReadLE(data, &offset, &b.id);
    (void)ReadLE(data, &offset, &b.rows);
    (void)ReadLE(data, &offset, &b.bytes);
    (void)ReadLE(data, &offset, &b.digest);
  }
  DMC_RETURN_IF_ERROR(CheckSeal(data, offset, what));
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
  if (rows != cp.num_rows) {
    return DataLossError("checkpoint bucket rows sum to " +
                         std::to_string(rows) + ", expected " +
                         std::to_string(cp.num_rows));
  }
  return Status::OK();
}

}  // namespace dmc
