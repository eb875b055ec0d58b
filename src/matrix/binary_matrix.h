// The 0/1 matrix substrate all mining algorithms run on.
//
// A BinaryMatrix is stored sparsely, CSR-style: for every row, the sorted
// list of column ids that are 1 in that row. This matches the paper's view
// of a row as "a set of columns" (§3.3) and makes the DMC merge step a
// linear merge of two sorted sequences.

#ifndef DMC_MATRIX_BINARY_MATRIX_H_
#define DMC_MATRIX_BINARY_MATRIX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "postings/posting_container.h"
#include "util/bitvector.h"

namespace dmc {

/// Column index ("attribute" in the paper).
using ColumnId = uint32_t;
/// Row index ("transaction" in the paper).
using RowId = uint32_t;

/// Immutable sparse 0/1 matrix. Rows are sorted, deduplicated column-id
/// lists; per-column 1-counts (`ones(c)` in the paper) are precomputed.
class BinaryMatrix {
 public:
  /// Empty 0x0 matrix.
  BinaryMatrix() = default;

  /// Builds from row lists through MatrixBuilder::AddRow: a row that is
  /// not strictly increasing is sorted and deduplicated; column ids must
  /// be < num_columns.
  static BinaryMatrix FromRows(ColumnId num_columns,
                               std::vector<std::vector<ColumnId>> rows);

  BinaryMatrix(const BinaryMatrix&) = default;
  BinaryMatrix& operator=(const BinaryMatrix&) = default;
  BinaryMatrix(BinaryMatrix&&) = default;
  BinaryMatrix& operator=(BinaryMatrix&&) = default;

  RowId num_rows() const { return static_cast<RowId>(row_offsets_.size() - 1); }
  ColumnId num_columns() const { return num_columns_; }

  /// Total number of 1 entries.
  size_t num_ones() const { return column_ids_.size(); }

  /// Sorted column ids that are 1 in row `r`.
  std::span<const ColumnId> Row(RowId r) const {
    return std::span<const ColumnId>(column_ids_.data() + row_offsets_[r],
                                     row_offsets_[r + 1] - row_offsets_[r]);
  }

  /// Number of 1s in row `r`.
  size_t RowSize(RowId r) const {
    return row_offsets_[r + 1] - row_offsets_[r];
  }

  /// ones(c): number of rows with a 1 in column `c`, for every column.
  const std::vector<uint32_t>& column_ones() const { return column_ones_; }

  /// Point query (binary search within the row).
  bool Get(RowId r, ColumnId c) const;

  /// Transposed copy (rows <-> columns). Used to produce plinkT from
  /// plinkF, exactly as the paper does with the link graph.
  BinaryMatrix Transposed() const;

  /// Dense bitmap of column `c` over all rows. O(num_ones) per call if
  /// used for every column — prefer AllColumnBitmaps for bulk use.
  BitVector ColumnBitmap(ColumnId c) const;

  /// Bitmaps for every column, built in one row sweep.
  std::vector<BitVector> AllColumnBitmaps() const;

  /// Hybrid posting container of column `c` over all rows (sealed).
  /// O(num_ones) per call if used for every column — prefer
  /// AllColumnPostings for bulk use.
  PostingContainer ColumnPosting(ColumnId c) const;

  /// Posting containers for every column, built in one row sweep.
  std::vector<PostingContainer> AllColumnPostings() const;

  /// Approximate heap bytes held by the matrix.
  size_t MemoryBytes() const {
    return column_ids_.size() * sizeof(ColumnId) +
           row_offsets_.size() * sizeof(size_t) +
           column_ones_.size() * sizeof(uint32_t);
  }

  friend bool operator==(const BinaryMatrix& a, const BinaryMatrix& b) {
    return a.num_columns_ == b.num_columns_ &&
           a.row_offsets_ == b.row_offsets_ && a.column_ids_ == b.column_ids_;
  }

 private:
  friend class MatrixBuilder;

  ColumnId num_columns_ = 0;
  // CSR layout: row r spans column_ids_[row_offsets_[r] .. row_offsets_[r+1]).
  std::vector<size_t> row_offsets_{0};
  std::vector<ColumnId> column_ids_;
  std::vector<uint32_t> column_ones_;
};

/// Incremental row-by-row builder. It appends each row straight into the
/// matrix's CSR arrays, and Build() moves them into the matrix. Grows the
/// column count automatically to fit the largest id seen unless a fixed
/// count is given.
class MatrixBuilder {
 public:
  MatrixBuilder() = default;

  /// Fixes the column count; ids >= num_columns are rejected with a CHECK.
  explicit MatrixBuilder(ColumnId num_columns)
      : num_columns_(num_columns), fixed_columns_(true) {}

  /// Appends a row; `cols` may be unsorted and contain duplicates. A row
  /// that is already strictly increasing is not sorted again.
  void AddRow(std::vector<ColumnId> cols);

  /// Appends a row whose ids are strictly increasing, as the matrix
  /// readers validate them; only its last id is range-checked.
  void AddSortedRow(std::span<const ColumnId> row);

  /// Number of rows added so far.
  RowId num_rows() const {
    return static_cast<RowId>(row_offsets_.size() - 1);
  }

  /// Finalizes: counts ones(c) and moves the CSR arrays into the matrix.
  /// The builder is left empty and reusable.
  BinaryMatrix Build();

 private:
  ColumnId num_columns_ = 0;
  bool fixed_columns_ = false;
  std::vector<size_t> row_offsets_{0};
  std::vector<ColumnId> column_ids_;
};

}  // namespace dmc

#endif  // DMC_MATRIX_BINARY_MATRIX_H_
