// Checkpoint/resume for the external (disk-based) miner.
//
// Pass 1 of the external pipeline is the one read of the text input: it
// counts ones(c) and spills every row to its density bucket
// (matrix/row_spill.h). On big inputs it dominates wall-clock when a run
// dies midway. A checkpoint persists everything pass 1 produced — the
// first-pass statistics and the bucket inventory — so a restarted run
// can validate it and go straight to mining over the surviving spills.
//
// On-disk format: a sealed file (util/sealed_file.h), little-endian —
//
//   offset 0   8 bytes   magic "DMCCKPT\n"
//          8   u32       version (kCheckpointVersion)
//         12   u64       input file byte size     \ fingerprint of the
//         20   u64       input file FNV-1a hash   / original input
//         28   u8        bucketed flag (0 = identity order)
//         29   u32       num_columns
//         33   u64       num_rows
//         41   u32 * num_columns   column_ones
//        ...   u32       bucket count
//        ...   per bucket: i32 id, u64 rows, u64 bytes, u64 spill digest
//        ...   12 bytes  seal: u64 FNV-1a of every byte above, "DMCE"
//
// The reader treats any structural problem, checksum mismatch or other
// version as kDataLoss. ValidateCheckpoint then re-fingerprints the input
// and reads every bucket spill through ReadRowSpill, which checks each
// block's checksum, row count and ids; the spill's rows, size and digest
// must equal what the checkpoint recorded, and the buckets must hold
// num_rows rows between them. So a stale checkpoint, or a bucket that is
// torn or damaged even at its old size, degrades to a fresh run instead
// of mining the wrong data.

#ifndef DMC_CORE_CHECKPOINT_H_
#define DMC_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "matrix/binary_matrix.h"
#include "util/status.h"
#include "util/statusor.h"

namespace dmc {

/// Version written into, and the only one accepted from, a checkpoint.
/// Version 1 recorded text buckets without a digest.
inline constexpr uint32_t kCheckpointVersion = 2;

/// Cheap identity of a file: byte size + FNV-1a of the raw content.
struct FileFingerprint {
  uint64_t bytes = 0;
  uint64_t hash = 0;

  friend bool operator==(const FileFingerprint& a, const FileFingerprint& b) {
    return a.bytes == b.bytes && a.hash == b.hash;
  }
};

/// Streams `path` once and returns its fingerprint.
[[nodiscard]] StatusOr<FileFingerprint> FingerprintFile(
    const std::string& path);

/// Everything pass 1 of the external miner produces.
struct ExternalCheckpoint {
  FileFingerprint input;
  /// Density buckets, or (false) identity order's one bucket in input
  /// order. A run resumes only a checkpoint of its own row order.
  bool bucketed = false;
  ColumnId num_columns = 0;
  uint64_t num_rows = 0;
  std::vector<uint32_t> column_ones;

  struct Bucket {
    int32_t id = 0;
    uint64_t rows = 0;
    /// Byte size of the bucket spill at checkpoint time.
    uint64_t bytes = 0;
    /// The spill's digest (RowSpillSummary::digest).
    uint64_t digest = 0;
  };
  std::vector<Bucket> buckets;
};

/// Path of density bucket `bucket` under `work_dir` (shared between the
/// external miner and checkpoint validation).
std::string ExternalBucketPath(const std::string& work_dir, int bucket);

/// Atomically writes `cp` to `path` (temp + fsync + rename).
[[nodiscard]] Status WriteCheckpointFile(const ExternalCheckpoint& cp,
                                         const std::string& path);

/// Parses a checkpoint file. Corruption, truncation or a checksum
/// mismatch yields kDataLoss; a missing file yields kIOError.
[[nodiscard]] StatusOr<ExternalCheckpoint> ReadCheckpointFile(
    const std::string& path);

/// Confirms `cp` still describes reality: the input at `input_path`
/// fingerprints identically and every bucket spill under `work_dir` reads
/// back intact with its recorded rows, byte size and digest. Returns
/// kFailedPrecondition when the input changed and kDataLoss when a bucket
/// spill is missing, damaged or not the one recorded.
[[nodiscard]] Status ValidateCheckpoint(const ExternalCheckpoint& cp,
                                        const std::string& input_path,
                                        const std::string& work_dir);

}  // namespace dmc

#endif  // DMC_CORE_CHECKPOINT_H_
