// Binary row spill: the external miner's density-bucket files.
//
// The external miner reads its text input once and appends every row to
// the spill of its density bucket; each mining phase, and every shard
// worker, then replays the spills instead of parsing text again. A
// spill file is
//
//   offset 0   8 bytes   magic "DMCSPL1\n"
//          8   blocks, each:
//                u32   payload bytes (> 0)
//                u32   rows in the block (> 0)
//                u64   FNV-1a of the block's file offset (u64), the two
//                      u32 above and the payload
//                ...   payload: per row a varint id count, then the
//                      first id and the gap to each next id as varints
//        ...   end block:
//                u32   0
//                u32   0
//                u64   FNV-1a of every block checksum before it, then
//                      its own file offset (u64) and the two zeros; this
//                      is the file's digest, which a checkpoint records
//
// Varints are LEB128 (7 bits a byte, low bits first, at most 5 bytes);
// the fixed-width integers are little-endian. A block closes before the
// row that could take its payload past kSpillBlockBytes, so a payload is
// never longer than that unless the block holds a single row wider than
// the whole budget.
//
// ReadRowSpill loads one block at a time and verifies all of it — the
// checksum, then every row: the id count, ids below num_columns and
// strictly increasing (every gap >= 1), the block's row count and its
// payload length — before any of its rows reaches the sink. Damage
// anywhere, including a file cut at a block boundary (no end block) or
// bytes after the end block, is kDataLoss naming the file and the byte
// offset of the block. Because each checksum covers the block's offset,
// a block copied or moved elsewhere in the file is caught too.
//
// The writer is a plain buffered file stream with no fsync: a spill is
// temporary data, and its checksums, checked on every replay and before a
// checkpoint resume, are what protect it.

#ifndef DMC_MATRIX_ROW_SPILL_H_
#define DMC_MATRIX_ROW_SPILL_H_

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <istream>
#include <span>
#include <string>
#include <vector>

#include "matrix/binary_matrix.h"
#include "util/status.h"
#include "util/statusor.h"

namespace dmc {

/// Payload budget of one spill block.
inline constexpr size_t kSpillBlockBytes = size_t{64} << 10;

/// What a complete spill holds: RowSpillWriter::Finish reports it for the
/// file it wrote, ReadRowSpill for the file it read.
struct RowSpillSummary {
  uint64_t rows = 0;
  /// File size, end block included.
  uint64_t bytes = 0;
  /// The end block's checksum, a digest of every block in the file.
  uint64_t digest = 0;
};

/// Writes one spill file (see the header comment for the format).
class RowSpillWriter {
 public:
  /// Creates or truncates `path` and writes the magic.
  [[nodiscard]] Status Open(const std::string& path);
  bool is_open() const { return out_.is_open(); }

  /// Appends one row; its ids must be strictly increasing.
  [[nodiscard]] Status AppendRow(std::span<const ColumnId> row);

  /// Writes the last block and the end block, then closes the file.
  [[nodiscard]] StatusOr<RowSpillSummary> Finish();

 private:
  Status FlushBlock();
  Status WriteBlock(uint32_t length, uint32_t rows, uint64_t checksum);
  Status WriteFailed() const;

  std::string path_;
  // The spill is temporary output of the disk pipeline, read back only
  // through ReadRowSpill's checksums; see the header comment.
  std::ofstream out_;  // dmc_lint: ignore
  std::vector<char> block_;
  size_t block_bytes_ = 0;
  uint32_t block_rows_ = 0;
  uint64_t offset_ = 0;
  uint64_t rows_ = 0;
  /// FNV-1a over the checksums of the blocks written so far.
  uint64_t chain_ = 0;
};

/// Streams the spill read from `in` (called `name` in errors) to `sink`,
/// one verified block at a time; a non-OK sink status ends the read and
/// is returned. An empty `sink` only verifies the file. Damage is
/// kDataLoss with the name and byte offset, a failed read kIOError.
[[nodiscard]] StatusOr<RowSpillSummary> ReadRowSpill(
    std::istream& in, const std::string& name, ColumnId num_columns,
    const std::function<Status(std::span<const ColumnId>)>& sink);

}  // namespace dmc

#endif  // DMC_MATRIX_ROW_SPILL_H_
