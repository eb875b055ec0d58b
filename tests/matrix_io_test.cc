#include "matrix/matrix_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "util/checksum.h"

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

TEST(MatrixIoTest, ScanDeduplicatesWithinRowWhenNormalizing) {
  std::stringstream ss("2 2 2\n");
  TextReadOptions options;
  options.normalize = true;
  auto stats = ScanMatrixText(ss, options);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->column_ones[2], 1u);
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

TEST(MatrixIoTest, NormalizeAcceptsUnsortedAndSorts) {
  std::stringstream ss("5 3 3 0\n");
  TextReadOptions options;
  options.normalize = true;
  auto parsed = ReadMatrixText(ss, options);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->RowSize(0), 3u);
  EXPECT_TRUE(parsed->Get(0, 0));
  EXPECT_TRUE(parsed->Get(0, 3));
  EXPECT_TRUE(parsed->Get(0, 5));
}

TEST(MatrixIoTest, BinaryRoundTrip) {
  const BinaryMatrix m =
      BinaryMatrix::FromRows(7, {{0, 6}, {}, {1, 2, 3}, {4}});
  const std::string path = testing::TempDir() + "/dmc_matrix_io_test.bin";
  ASSERT_TRUE(WriteMatrixBinaryFile(m, path).ok());
  auto parsed = ReadMatrixBinaryFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->num_columns(), 7u);
  EXPECT_EQ(*parsed, m);
}

TEST(MatrixIoTest, BinaryMissingFileIsIOError) {
  auto parsed = ReadMatrixBinaryFile("/nonexistent/dir/file.bin");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kIOError);
}

TEST(MatrixIoTest, BinaryRejectsBadMagic) {
  std::string data = SerializeMatrixBinary(
      BinaryMatrix::FromRows(3, {{0, 1}, {2}}));
  data[0] = 'X';
  auto parsed = ReadMatrixBinary(data);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(parsed.status().message().find("bad magic"), std::string::npos);
}

TEST(MatrixIoTest, BinaryRejectsBitFlipViaChecksum) {
  const BinaryMatrix m = BinaryMatrix::FromRows(3, {{0, 1}, {2}});
  std::string data = SerializeMatrixBinary(m);
  // Flip one bit inside the header's row count; structure stays parseable
  // for some flips, but the checksum must always catch it.
  data[13] ^= 0x01;
  auto parsed = ReadMatrixBinary(data);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
}

TEST(MatrixIoTest, BinaryRejectsTruncation) {
  const BinaryMatrix m = BinaryMatrix::FromRows(4, {{0, 1, 2, 3}, {1, 3}});
  const std::string data = SerializeMatrixBinary(m);
  for (size_t len = 0; len < data.size(); ++len) {
    auto parsed = ReadMatrixBinary(data.substr(0, len));
    ASSERT_FALSE(parsed.ok()) << "prefix of " << len << " bytes parsed";
    EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss) << len;
  }
}

TEST(MatrixIoTest, BinaryRejectsColumnCountAboveTheCap) {
  // A sealed 32-byte image with 0 rows and 2^26 + 1 columns: one column
  // past the cap the text reader enforces, so it must not size a matrix.
  std::string data = "DMCBIN1\n";
  const uint32_t num_columns = (1u << 26) + 1;
  const uint64_t num_rows = 0;
  data.append(reinterpret_cast<const char*>(&num_columns), 4);
  data.append(reinterpret_cast<const char*>(&num_rows), 8);
  const uint64_t seal = Fnv1a(data);
  data.append(reinterpret_cast<const char*>(&seal), 8);
  data.append("DMCE");
  ASSERT_EQ(data.size(), 32u);
  auto parsed = ReadMatrixBinary(data);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(parsed.status().message().find("byte 8"), std::string::npos)
      << parsed.status();
}

TEST(MatrixIoTest, BinaryErrorsCarryRowAndByteContext) {
  const BinaryMatrix m = BinaryMatrix::FromRows(3, {{0, 1}, {2}});
  std::string data = SerializeMatrixBinary(m);
  // Truncate inside row 1's payload (header 20 bytes, row 0 = 12 bytes,
  // row 1 count = 4 bytes => cut just after row 1's count field).
  auto parsed = ReadMatrixBinary(data.substr(0, 36));
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("row 1"), std::string::npos)
      << parsed.status();
  EXPECT_NE(parsed.status().message().find("byte"), std::string::npos);
}

}  // namespace
}  // namespace dmc
