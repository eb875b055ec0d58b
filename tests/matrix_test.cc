#include "matrix/binary_matrix.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace dmc {
namespace {

BinaryMatrix SmallMatrix() {
  // 4 rows x 5 columns.
  return BinaryMatrix::FromRows(5, {{0, 2}, {1, 2, 4}, {}, {0, 1, 2, 3, 4}});
}

TEST(BinaryMatrixTest, Dimensions) {
  const BinaryMatrix m = SmallMatrix();
  EXPECT_EQ(m.num_rows(), 4u);
  EXPECT_EQ(m.num_columns(), 5u);
  EXPECT_EQ(m.num_ones(), 10u);
}

TEST(BinaryMatrixTest, RowAccess) {
  const BinaryMatrix m = SmallMatrix();
  ASSERT_EQ(m.RowSize(0), 2u);
  EXPECT_EQ(m.Row(0)[0], 0u);
  EXPECT_EQ(m.Row(0)[1], 2u);
  EXPECT_EQ(m.RowSize(2), 0u);
  EXPECT_EQ(m.RowSize(3), 5u);
}

TEST(BinaryMatrixTest, ColumnOnes) {
  const BinaryMatrix m = SmallMatrix();
  const auto& ones = m.column_ones();
  ASSERT_EQ(ones.size(), 5u);
  EXPECT_EQ(ones[0], 2u);
  EXPECT_EQ(ones[1], 2u);
  EXPECT_EQ(ones[2], 3u);
  EXPECT_EQ(ones[3], 1u);
  EXPECT_EQ(ones[4], 2u);
}

TEST(BinaryMatrixTest, RowsAreSortedAndDeduplicated) {
  const BinaryMatrix m = BinaryMatrix::FromRows(4, {{3, 1, 3, 0, 1}});
  ASSERT_EQ(m.RowSize(0), 3u);
  EXPECT_EQ(m.Row(0)[0], 0u);
  EXPECT_EQ(m.Row(0)[1], 1u);
  EXPECT_EQ(m.Row(0)[2], 3u);
  EXPECT_EQ(m.column_ones()[1], 1u);  // dedup counted once
}

TEST(BinaryMatrixTest, Get) {
  const BinaryMatrix m = SmallMatrix();
  EXPECT_TRUE(m.Get(0, 0));
  EXPECT_FALSE(m.Get(0, 1));
  EXPECT_TRUE(m.Get(3, 4));
  EXPECT_FALSE(m.Get(2, 0));
}

TEST(BinaryMatrixTest, TransposedRoundTrip) {
  const BinaryMatrix m = SmallMatrix();
  const BinaryMatrix t = m.Transposed();
  EXPECT_EQ(t.num_rows(), m.num_columns());
  EXPECT_EQ(t.num_columns(), m.num_rows());
  for (RowId r = 0; r < m.num_rows(); ++r) {
    for (ColumnId c = 0; c < m.num_columns(); ++c) {
      EXPECT_EQ(m.Get(r, c), t.Get(c, static_cast<ColumnId>(r)));
    }
  }
  EXPECT_EQ(t.Transposed(), m);
}

TEST(BinaryMatrixTest, EmptyMatrix) {
  const BinaryMatrix m;
  EXPECT_EQ(m.num_rows(), 0u);
  EXPECT_EQ(m.num_columns(), 0u);
  EXPECT_EQ(m.num_ones(), 0u);
}

TEST(MatrixBuilderTest, GrowsColumns) {
  MatrixBuilder b;
  b.AddRow({7});
  b.AddRow({2, 11});
  const BinaryMatrix m = b.Build();
  EXPECT_EQ(m.num_columns(), 12u);
  EXPECT_EQ(m.num_rows(), 2u);
  EXPECT_TRUE(m.Get(1, 11));
}

TEST(MatrixBuilderTest, FixedColumns) {
  MatrixBuilder b(6);
  b.AddRow({0, 5});
  const BinaryMatrix m = b.Build();
  EXPECT_EQ(m.num_columns(), 6u);
}

TEST(MatrixBuilderTest, ReusableAfterBuild) {
  MatrixBuilder b(3);
  b.AddRow({0});
  (void)b.Build();
  EXPECT_EQ(b.num_rows(), 0u);
  b.AddRow({1, 2});
  const BinaryMatrix m = b.Build();
  EXPECT_EQ(m.num_rows(), 1u);
  EXPECT_EQ(m.num_ones(), 2u);
}

TEST(BinaryMatrixTest, RandomizedTransposePreservesOnes) {
  Rng rng(99);
  MatrixBuilder b(50);
  for (int r = 0; r < 200; ++r) {
    std::vector<ColumnId> row;
    for (ColumnId c = 0; c < 50; ++c) {
      if (rng.Bernoulli(0.1)) row.push_back(c);
    }
    b.AddRow(row);
  }
  const BinaryMatrix m = b.Build();
  const BinaryMatrix t = m.Transposed();
  EXPECT_EQ(m.num_ones(), t.num_ones());
  // ones of m's columns == row sizes of t.
  for (ColumnId c = 0; c < m.num_columns(); ++c) {
    EXPECT_EQ(m.column_ones()[c], t.RowSize(c));
  }
}

}  // namespace
}  // namespace dmc
