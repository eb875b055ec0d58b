#include "matrix/binary_matrix.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "util/logging.h"

namespace dmc {

BinaryMatrix BinaryMatrix::FromRows(ColumnId num_columns,
                                    std::vector<std::vector<ColumnId>> rows) {
  MatrixBuilder builder(num_columns);
  for (auto& row : rows) builder.AddRow(std::move(row));
  return builder.Build();
}

bool BinaryMatrix::Get(RowId r, ColumnId c) const {
  const auto row = Row(r);
  return std::binary_search(row.begin(), row.end(), c);
}

BinaryMatrix BinaryMatrix::Transposed() const {
  std::vector<std::vector<ColumnId>> cols(num_columns_);
  for (ColumnId c = 0; c < num_columns_; ++c) {
    cols[c].reserve(column_ones_[c]);
  }
  const RowId n = num_rows();
  for (RowId r = 0; r < n; ++r) {
    for (ColumnId c : Row(r)) {
      cols[c].push_back(static_cast<ColumnId>(r));
    }
  }
  return FromRows(static_cast<ColumnId>(n), std::move(cols));
}

BitVector BinaryMatrix::ColumnBitmap(ColumnId c) const {
  DMC_CHECK_LT(c, num_columns_);
  BitVector bv(num_rows());
  const RowId n = num_rows();
  for (RowId r = 0; r < n; ++r) {
    if (Get(r, c)) bv.Set(r);
  }
  return bv;
}

std::vector<BitVector> BinaryMatrix::AllColumnBitmaps() const {
  std::vector<BitVector> bitmaps(num_columns_, BitVector(num_rows()));
  const RowId n = num_rows();
  for (RowId r = 0; r < n; ++r) {
    for (ColumnId c : Row(r)) bitmaps[c].Set(r);
  }
  return bitmaps;
}

PostingContainer BinaryMatrix::ColumnPosting(ColumnId c) const {
  DMC_CHECK_LT(c, num_columns_);
  PostingContainer p;
  const RowId n = num_rows();
  for (RowId r = 0; r < n; ++r) {
    if (Get(r, c)) p.Append(r);
  }
  p.Optimize();
  return p;
}

std::vector<PostingContainer> BinaryMatrix::AllColumnPostings() const {
  std::vector<PostingContainer> postings(num_columns_);
  const RowId n = num_rows();
  for (RowId r = 0; r < n; ++r) {
    for (ColumnId c : Row(r)) postings[c].Append(r);
  }
  for (PostingContainer& p : postings) p.Optimize();
  return postings;
}

void MatrixBuilder::AddRow(std::vector<ColumnId> cols) {
  if (std::adjacent_find(cols.begin(), cols.end(),
                         std::greater_equal<>()) != cols.end()) {
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  }
  AddSortedRow(cols);
}

void MatrixBuilder::AddSortedRow(std::span<const ColumnId> row) {
  if (!row.empty()) {
    if (fixed_columns_) {
      DMC_CHECK_LT(row.back(), num_columns_);
    } else if (row.back() >= num_columns_) {
      num_columns_ = row.back() + 1;
    }
  }
  column_ids_.insert(column_ids_.end(), row.begin(), row.end());
  row_offsets_.push_back(column_ids_.size());
}

BinaryMatrix MatrixBuilder::Build() {
  BinaryMatrix m;
  m.num_columns_ = num_columns_;
  m.column_ones_.assign(num_columns_, 0);
  for (ColumnId c : column_ids_) ++m.column_ones_[c];
  m.row_offsets_ = std::exchange(row_offsets_, {0});
  m.column_ids_ = std::exchange(column_ids_, {});
  if (!fixed_columns_) num_columns_ = 0;
  return m;
}

}  // namespace dmc
