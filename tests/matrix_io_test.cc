#include "matrix/matrix_io.h"

#include <gtest/gtest.h>

#include <sstream>

namespace dmc {
namespace {

TEST(MatrixIoTest, RoundTrip) {
  const BinaryMatrix m =
      BinaryMatrix::FromRows(6, {{0, 5}, {}, {1, 2, 3}, {4}});
  std::stringstream ss;
  ASSERT_TRUE(WriteMatrixText(m, ss).ok());
  auto parsed = ReadMatrixText(ss);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  // Column count may shrink to the max id seen + 1 (5 -> 6 here since
  // column 5 is used).
  EXPECT_EQ(parsed->num_columns(), 6u);
  EXPECT_EQ(*parsed, m);
}

TEST(MatrixIoTest, ParsesCommentsAndBlankRows) {
  std::stringstream ss("# header\n1 2\n\n0\n");
  auto parsed = ReadMatrixText(ss);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_rows(), 3u);
  EXPECT_EQ(parsed->RowSize(0), 2u);
  EXPECT_EQ(parsed->RowSize(1), 0u);
  EXPECT_EQ(parsed->RowSize(2), 1u);
}

TEST(MatrixIoTest, RejectsMalformedToken) {
  std::stringstream ss("1 x 3\n");
  auto parsed = ReadMatrixText(ss);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(MatrixIoTest, HandlesWhitespaceVariants) {
  std::stringstream ss("  3\t4  \r\n7\n");
  auto parsed = ReadMatrixText(ss);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->num_rows(), 2u);
  EXPECT_TRUE(parsed->Get(0, 3));
  EXPECT_TRUE(parsed->Get(0, 4));
  EXPECT_TRUE(parsed->Get(1, 7));
}

TEST(MatrixIoTest, FileRoundTrip) {
  const BinaryMatrix m = BinaryMatrix::FromRows(3, {{0, 1}, {2}});
  const std::string path = testing::TempDir() + "/dmc_matrix_io_test.txt";
  ASSERT_TRUE(WriteMatrixTextFile(m, path).ok());
  auto parsed = ReadMatrixTextFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, m);
}

TEST(MatrixIoTest, MissingFileIsIOError) {
  auto parsed = ReadMatrixTextFile("/nonexistent/dir/file.txt");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kIOError);
}

TEST(MatrixIoTest, ScanMatchesMaterializedStats) {
  const BinaryMatrix m =
      BinaryMatrix::FromRows(5, {{0, 1, 4}, {1}, {}, {2, 3, 4}});
  std::stringstream ss;
  ASSERT_TRUE(WriteMatrixText(m, ss).ok());
  auto stats = ScanMatrixText(ss);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->num_rows, 4u);
  EXPECT_EQ(stats->num_columns, 5u);
  ASSERT_EQ(stats->column_ones.size(), 5u);
  for (ColumnId c = 0; c < 5; ++c) {
    EXPECT_EQ(stats->column_ones[c], m.column_ones()[c]) << c;
  }
}

TEST(MatrixIoTest, StrictScanRejectsDuplicateIds) {
  std::stringstream ss("2 2 2\n");
  auto stats = ScanMatrixText(ss);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(stats.status().message().find("duplicate column id 2"),
            std::string::npos)
      << stats.status();
  EXPECT_NE(stats.status().message().find("line 1"), std::string::npos);
}

TEST(MatrixIoTest, StrictReadRejectsUnsortedIds) {
  std::stringstream ss("0 1\n5 3\n");
  auto parsed = ReadMatrixText(ss);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("not sorted"), std::string::npos)
      << parsed.status();
  // The error names line 2 and its byte offset (line 1 is "0 1\n" = 4 bytes).
  EXPECT_NE(parsed.status().message().find("line 2 (byte 4)"),
            std::string::npos)
      << parsed.status();
}

TEST(MatrixIoTest, StrictReadRejectsOutOfRangeIds) {
  std::stringstream ss("0 4000000000\n");
  auto parsed = ReadMatrixText(ss);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("exceeds the configured maximum"),
            std::string::npos)
      << parsed.status();
}

}  // namespace
}  // namespace dmc
