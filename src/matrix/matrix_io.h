// Matrix serialization and a streaming first-pass reader.
//
// Text format ("transaction format"): one row per '\n'-terminated line of
// decimal column ids separated by ' ', '\t' or '\r' (so CRLF files read
// like LF ones); a last line without '\n' is still a row; blank lines are
// empty rows; lines starting with '#' are comments. This matches common
// association-rule data sets and keeps the examples/CLI self-contained.
// The three text readers share one block tokenizer: it reads the stream
// 64 KiB at a time (more only for a longer line), so streaming a file
// never loads it.
//
// Binary format: the same data as a sealed file (util/sealed_file.h) —
//
//   offset 0   8 bytes   magic "DMCBIN1\n"
//          8   u32       num_columns (at most kMaxMatrixColumns)
//         12   u64       num_rows
//         20   per row:  u32 count, then count u32 column ids
//                        (strictly increasing, all < num_columns)
//        ...   12 bytes  seal: u64 FNV-1a of every byte above, "DMCE"
//
// All integers are little-endian. Readers validate structure, ranges,
// sortedness and the checksum, and report failures as kDataLoss with the
// row index and byte offset; they never crash on corrupt input.
//
// Both readers are *strict by default*: a row whose column ids are
// unsorted, duplicated or out of range is rejected with a Status that
// names the line/row and byte offset. Legacy tolerant behaviour
// (sort + dedup on the fly) is available via TextReadOptions::normalize.
//
// File writers are crash-safe: they go through AtomicFileWriter
// (temp + fsync + rename), so a crash mid-write leaves the previous file
// (or no file) — never a torn one.

#ifndef DMC_MATRIX_MATRIX_IO_H_
#define DMC_MATRIX_MATRIX_IO_H_

#include <functional>
#include <istream>
#include <ostream>
#include <span>
#include <string>
#include <string_view>

#include "matrix/binary_matrix.h"
#include "util/status.h"
#include "util/statusor.h"

namespace dmc {

/// Widest matrix a reader accepts: 2^26 (~64M) columns, so a corrupt id
/// or header cannot size per-column state into an OOM.
inline constexpr ColumnId kMaxMatrixColumns = ColumnId{1} << 26;

/// Controls how the text readers treat imperfect rows.
struct TextReadOptions {
  /// When true, rows are sorted and deduplicated on the fly (the historic
  /// tolerant behaviour). When false (default), a row with unsorted or
  /// duplicate column ids is rejected with kInvalidArgument.
  bool normalize = false;
  /// Largest acceptable column id; anything above it is rejected. The
  /// default caps implied matrix width at kMaxMatrixColumns.
  ColumnId max_column_id = kMaxMatrixColumns - 1;
};

/// The first line of transaction text: "# dmc matrix: rows=R columns=C".
[[nodiscard]] std::string TextHeader(uint64_t num_rows, ColumnId num_columns);
/// Appends `row` to `out` as one line of transaction text: the ids in
/// decimal, separated by single spaces, then '\n'.
void AppendTextRow(std::span<const ColumnId> row, std::string* out);

/// Writes `m` in transaction text format.
[[nodiscard]] Status WriteMatrixText(const BinaryMatrix& m, std::ostream& os);
/// Atomically replaces `path` with `m` in transaction text format.
[[nodiscard]] Status WriteMatrixTextFile(const BinaryMatrix& m, const std::string& path);

/// Parses transaction text format. Fails on malformed tokens and (unless
/// `options.normalize`) on unsorted/duplicate ids; errors carry the line
/// number and byte offset. Validated rows go straight into the matrix's
/// CSR arrays.
[[nodiscard]] StatusOr<BinaryMatrix> ReadMatrixText(
    std::istream& is, const TextReadOptions& options = {});
[[nodiscard]] StatusOr<BinaryMatrix> ReadMatrixTextFile(
    const std::string& path, const TextReadOptions& options = {});

/// First-pass statistics obtainable from a single stream scan without
/// materializing the matrix: the row count and ones(c) per column, the
/// counts the paper's first disk pass collects. Its size is O(columns),
/// whatever the number of rows.
struct FirstPassStats {
  ColumnId num_columns = 0;
  RowId num_rows = 0;
  std::vector<uint32_t> column_ones;

  /// Counts one row of sorted, deduplicated column ids.
  void AddRow(std::span<const ColumnId> row);
};

[[nodiscard]] StatusOr<FirstPassStats> ScanMatrixText(
    std::istream& is, const TextReadOptions& options = {});

/// Streams rows from transaction text without materializing the matrix:
/// `callback(row)` is invoked once per row with sorted, deduplicated
/// column ids; a non-OK return aborts the scan. This is the primitive the
/// external (disk-based) miner is built on.
[[nodiscard]] Status ForEachRowText(
    std::istream& is,
    const std::function<Status(std::span<const ColumnId>)>& callback,
    const TextReadOptions& options = {});

/// Serializes `m` in the checksummed binary format (see header comment).
[[nodiscard]] std::string SerializeMatrixBinary(const BinaryMatrix& m);

/// Atomically replaces `path` with `m` in the binary format.
[[nodiscard]] Status WriteMatrixBinaryFile(const BinaryMatrix& m,
                                           const std::string& path);

/// Parses the binary format from an in-memory buffer. Corruption
/// (bad magic, truncation, unsorted/out-of-range ids, checksum mismatch)
/// is reported as kDataLoss with the row index and byte offset.
[[nodiscard]] StatusOr<BinaryMatrix> ReadMatrixBinary(std::string_view data);
[[nodiscard]] StatusOr<BinaryMatrix> ReadMatrixBinaryFile(
    const std::string& path);

}  // namespace dmc

#endif  // DMC_MATRIX_MATRIX_IO_H_
