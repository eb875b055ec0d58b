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
// The readers are strict: a row whose column ids are unsorted,
// duplicated or above kMaxMatrixColumns - 1 is rejected with a Status
// that names the line and byte offset.
//
// The file writer is crash-safe: it goes through AtomicFileWriter
// (temp + fsync + rename), so a crash mid-write leaves the previous file
// (or no file) — never a torn one.

#ifndef DMC_MATRIX_MATRIX_IO_H_
#define DMC_MATRIX_MATRIX_IO_H_

#include <functional>
#include <istream>
#include <ostream>
#include <span>
#include <string>

#include "matrix/binary_matrix.h"
#include "util/status.h"
#include "util/statusor.h"

namespace dmc {

/// Widest matrix a reader accepts: 2^26 (~64M) columns, so a corrupt id
/// cannot size per-column state into an OOM.
inline constexpr ColumnId kMaxMatrixColumns = ColumnId{1} << 26;

/// The first line of transaction text: "# dmc matrix: rows=R columns=C".
[[nodiscard]] std::string TextHeader(uint64_t num_rows, ColumnId num_columns);
/// Appends `row` to `out` as one line of transaction text: the ids in
/// decimal, separated by single spaces, then '\n'.
void AppendTextRow(std::span<const ColumnId> row, std::string* out);

/// Writes `m` in transaction text format.
[[nodiscard]] Status WriteMatrixText(const BinaryMatrix& m, std::ostream& os);
/// Atomically replaces `path` with `m` in transaction text format.
[[nodiscard]] Status WriteMatrixTextFile(const BinaryMatrix& m, const std::string& path);

/// Parses transaction text format. Fails on malformed tokens and on
/// unsorted, duplicate or out-of-range ids; errors carry the line number
/// and byte offset. Validated rows go straight into the matrix's CSR
/// arrays.
[[nodiscard]] StatusOr<BinaryMatrix> ReadMatrixText(std::istream& is);
[[nodiscard]] StatusOr<BinaryMatrix> ReadMatrixTextFile(
    const std::string& path);

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

[[nodiscard]] StatusOr<FirstPassStats> ScanMatrixText(std::istream& is);

/// Streams rows from transaction text without materializing the matrix:
/// `callback(row)` is invoked once per row with sorted, deduplicated
/// column ids; a non-OK return aborts the scan. This is the primitive the
/// external (disk-based) miner is built on.
[[nodiscard]] Status ForEachRowText(
    std::istream& is,
    const std::function<Status(std::span<const ColumnId>)>& callback);

}  // namespace dmc

#endif  // DMC_MATRIX_MATRIX_IO_H_
