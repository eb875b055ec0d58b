// The text readers' contract, pinned: the exact status string of every
// malformed-input class (on line 1 and on a line that starts past the
// reader's first 64 KiB), and the line rules of the transaction format —
// block boundaries, overlong lines, a missing final newline, CRLF,
// comments, zero-padded ids — across ReadMatrixText, ForEachRowText and
// ScanMatrixText, from a string stream and from a file.

#include <gtest/gtest.h>

#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "matrix/matrix_io.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace dmc {
namespace {

using Rows = std::vector<std::vector<ColumnId>>;

// 4200 lines of "0 1 2 3 4 5 6 7\n": 67200 bytes, so the next line starts
// past the first 64 KiB block.
std::string PastFirstBlock() {
  std::string text;
  for (int i = 0; i < 4200; ++i) text += "0 1 2 3 4 5 6 7\n";
  return text;
}

Status ReadStatus(const std::string& text) {
  std::istringstream in(text);
  return ReadMatrixText(in).status();
}

Status StreamStatus(const std::string& text) {
  std::istringstream in(text);
  return ForEachRowText(
      in, [](std::span<const ColumnId>) { return Status::OK(); });
}

Status ScanStatus(const std::string& text) {
  std::istringstream in(text);
  return ScanMatrixText(in).status();
}

struct PinnedCase {
  std::string input;
  std::string message;
};

// Status strings as the reader has always reported them. Every reader
// must produce the same string for the same input.
TEST(TextReaderPinnedMessageTest, EveryReaderReportsThePinnedMessage) {
  const std::string far = PastFirstBlock();
  const std::string far_at = "line 4201 (byte 67200): ";
  const std::string nul_token("4\0" "5", 3);
  const std::vector<PinnedCase> cases = {
      {"12a\n", "InvalidArgument: line 1 (byte 0): malformed column id '12a'"},
      {"-3\n", "InvalidArgument: line 1 (byte 0): malformed column id '-3'"},
      {"1 +5\n", "InvalidArgument: line 1 (byte 0): malformed column id '+5'"},
      {"1 " + nul_token + " 9\n",
       "InvalidArgument: line 1 (byte 0): malformed column id '" + nul_token +
           "'"},
      {"4294967296\n",
       "InvalidArgument: line 1 (byte 0): malformed column id '4294967296'"},
      {"0 67108864\n",
       "InvalidArgument: line 1 (byte 0): column id 67108864 exceeds the "
       "configured maximum 67108863"},
      {"2 3 3\n", "InvalidArgument: line 1 (byte 0): duplicate column id 3"},
      {"000 00\n", "InvalidArgument: line 1 (byte 0): duplicate column id 0"},
      {"5 3\n",
       "InvalidArgument: line 1 (byte 0): column ids not sorted (3 after 5)"},
      // A malformed token wins over an earlier order error, and a range
      // error wins over an earlier duplicate.
      {"5 3 x\n", "InvalidArgument: line 1 (byte 0): malformed column id 'x'"},
      {"3 3 99999999\n",
       "InvalidArgument: line 1 (byte 0): column id 99999999 exceeds the "
       "configured maximum 67108863"},
      {"# c\n1\n\t 7  12a\r\n",
       "InvalidArgument: line 3 (byte 6): malformed column id '12a'"},
      {far + "1 12a 5\n", "InvalidArgument: " + far_at +
                              "malformed column id '12a'"},
      {far + "-3\n", "InvalidArgument: " + far_at + "malformed column id '-3'"},
      {far + "+5\n", "InvalidArgument: " + far_at + "malformed column id '+5'"},
      {far + nul_token + "\n", "InvalidArgument: " + far_at +
                                   "malformed column id '" + nul_token + "'"},
      {far + "4294967296", "InvalidArgument: " + far_at +
                               "malformed column id '4294967296'"},
      {far + "0 67108864\n",
       "InvalidArgument: " + far_at +
           "column id 67108864 exceeds the configured maximum 67108863"},
      {far + "2 3 3\n", "InvalidArgument: " + far_at + "duplicate column id 3"},
      {far + "5 3\r\n",
       "InvalidArgument: " + far_at + "column ids not sorted (3 after 5)"},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    const PinnedCase& c = cases[i];
    SCOPED_TRACE("case " + std::to_string(i));
    EXPECT_EQ(ReadStatus(c.input).ToString(), c.message);
    EXPECT_EQ(StreamStatus(c.input).ToString(), c.message);
    EXPECT_EQ(ScanStatus(c.input).ToString(), c.message);
  }
}

TEST(TextReaderPinnedMessageTest, UnreadableFileReportsReadFailedAtLineZero) {
  // A directory opens as a stream but fails its first read; the file
  // reader names the path it failed on.
  const std::string dir = testing::TempDir();
  const auto parsed = ReadMatrixTextFile(dir);
  EXPECT_EQ(parsed.status().ToString(),
            "IOError: " + dir + ": read failed at line 0 (byte 0)");
}

// Reads `text` three ways and checks they agree with each other and with
// `want`, row for row.
void ExpectRows(const std::string& text, const Rows& want) {
  std::istringstream read_in(text);
  const auto parsed = ReadMatrixText(read_in);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->num_rows(), want.size());
  for (RowId r = 0; r < parsed->num_rows(); ++r) {
    const auto row = parsed->Row(r);
    ASSERT_EQ(std::vector<ColumnId>(row.begin(), row.end()), want[r])
        << "row " << r;
  }

  Rows streamed;
  std::istringstream stream_in(text);
  ASSERT_TRUE(ForEachRowText(stream_in,
                             [&](std::span<const ColumnId> row) {
                               streamed.emplace_back(row.begin(), row.end());
                               return Status::OK();
                             })
                  .ok());
  EXPECT_EQ(streamed, want);

  std::istringstream scan_in(text);
  const auto stats = ScanMatrixText(scan_in);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->num_rows, want.size());
  EXPECT_EQ(stats->num_columns, parsed->num_columns());
  EXPECT_EQ(stats->column_ones, parsed->column_ones());
}

std::string Join(const Rows& rows) {
  std::string text;
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) text += ' ';
      text += std::to_string(row[i]);
    }
    text += '\n';
  }
  return text;
}

TEST(TextReaderTest, RowsStraddlingTheBlockBoundaryParseWhole) {
  // Shift one row "123456 7654321" across byte 65536 a byte at a time,
  // so the boundary falls inside each digit, each separator and the
  // newline.
  for (size_t shift = 0; shift < 18; ++shift) {
    Rows rows;
    std::string text;
    while (text.size() + 16 < 65536 - shift) {
      rows.push_back({1, 20, 300});
      text += "1 20 300\n";
    }
    const std::string pad(65536 - shift - 2 - text.size(), ' ');
    text += pad + "8\n";
    rows.push_back({8});
    text += "123456 7654321\n9\n";
    rows.push_back({123456, 7654321});
    rows.push_back({9});
    SCOPED_TRACE("shift " + std::to_string(shift));
    ExpectRows(text, rows);
  }
}

TEST(TextReaderTest, LineLongerThanTheBlockIsOneRow) {
  Rows rows(3);
  rows[0] = {5};
  for (ColumnId c = 0; c < 300000; ++c) rows[1].push_back(c);
  rows[2] = {1, 299999};
  const std::string text = Join(rows);
  ASSERT_GT(text.size(), 1u << 20);
  ExpectRows(text, rows);
}

TEST(TextReaderTest, LastLineWithoutNewlineIsARow) {
  ExpectRows("1 2\n3 4", {{1, 2}, {3, 4}});
  ExpectRows("7", {{7}});
  // A trailing newline ends the last row; it does not start another.
  ExpectRows("1 2\n3 4\n", {{1, 2}, {3, 4}});
}

TEST(TextReaderTest, CrlfLineEndingsParseLikeLf) {
  ExpectRows("1 2\r\n\r\n3\r\n", {{1, 2}, {}, {3}});
  ExpectRows("1 2\r\n3 4", {{1, 2}, {3, 4}});
}

TEST(TextReaderTest, BlankLinesAreEmptyRowsAndOnlyColumnZeroHashIsAComment) {
  ExpectRows("\n\n1\n", {{}, {}, {1}});
  ExpectRows("# header\n2\n#\n3\n", {{2}, {3}});
  std::istringstream in(" # not a comment\n");
  EXPECT_FALSE(ReadMatrixText(in).ok());
}

TEST(TextReaderTest, CommentsOnlyAndEmptyFilesAreZeroByZero) {
  for (const std::string text : {"", "# only\n# comments\n", "# no newline"}) {
    std::istringstream in(text);
    const auto parsed = ReadMatrixText(in);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed->num_rows(), 0u);
    EXPECT_EQ(parsed->num_columns(), 0u);
    ExpectRows(text, {});
  }
}

TEST(TextReaderTest, ZeroPaddedIdsParseToTheirValue) {
  ExpectRows("0007 0010\n000\n000000000000000000123\n", {{7, 10}, {0}, {123}});
}

TEST(TextReaderTest, ErrorOffsetsPastTheFirstBlockCountEveryByte) {
  // Rows of varying width, so line starts fall at irregular offsets.
  Rng rng(17);
  std::string text;
  size_t lines = 0;
  while (text.size() < 200000) {
    const uint32_t n = static_cast<uint32_t>(rng.Uniform(12));
    for (uint32_t i = 0; i < n; ++i) {
      if (i > 0) text += ' ';
      text += std::to_string(i * 1000 + rng.Uniform(1000));
    }
    text += '\n';
    ++lines;
  }
  const std::string want = "InvalidArgument: line " +
                           std::to_string(lines + 1) + " (byte " +
                           std::to_string(text.size()) +
                           "): malformed column id 'bad'";
  text += "3 bad\n1\n";
  EXPECT_EQ(ReadStatus(text).ToString(), want);
  EXPECT_EQ(StreamStatus(text).ToString(), want);
  EXPECT_EQ(ScanStatus(text).ToString(), want);
}

TEST(TextReaderTest, FileStreamAndStringStreamAgree) {
  Rng rng(23);
  Rows rows;
  for (int r = 0; r < 30000; ++r) {
    std::vector<ColumnId> row;
    for (ColumnId c = 0; c < 40; ++c) {
      if (rng.Bernoulli(0.2)) row.push_back(c * 7);
    }
    rows.push_back(row);
  }
  const std::string good = "# rows\n" + Join(rows);
  const std::string bad = good + "1 1\n";
  for (const std::string& text : {good, bad}) {
    const std::string path = testing::TempDir() + "/dmc_text_reader_test.txt";
    {
      std::ofstream out(path, std::ios::binary);
      out << text;
    }
    std::istringstream string_in(text);
    std::ifstream file_in(path);
    const auto from_string = ReadMatrixText(string_in);
    const auto from_file = ReadMatrixText(file_in);
    ASSERT_EQ(from_string.ok(), from_file.ok());
    if (from_string.ok()) {
      EXPECT_EQ(*from_string, *from_file);
      ExpectRows(text, rows);
    } else {
      EXPECT_EQ(from_string.status().ToString(),
                from_file.status().ToString());
    }
  }
}

TEST(TextReaderTest, RowFailpointFiresOncePerDataRowNotPerComment) {
  ASSERT_TRUE(fail::Configure("").ok());
  std::istringstream in("# a\n1\n\n# b\n2 3\n4");
  const auto parsed = ReadMatrixText(in);
  const uint64_t hits = fail::GetSiteStats("matrix.text.row").hits;
  fail::Disable();
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->num_rows(), 4u);
  EXPECT_EQ(hits, 4u);
}

TEST(TextWriterTest, WritesTheExactBytes) {
  const BinaryMatrix m = BinaryMatrix::FromRows(
      1000, {{0, 7, 42}, {}, {999}, {}, {10, 100, 998}});
  const std::string want =
      "# dmc matrix: rows=5 columns=1000\n"
      "0 7 42\n"
      "\n"
      "999\n"
      "\n"
      "10 100 998\n";
  std::ostringstream out;
  ASSERT_TRUE(WriteMatrixText(m, out).ok());
  EXPECT_EQ(out.str(), want);

  const std::string path = testing::TempDir() + "/dmc_text_writer_test.txt";
  ASSERT_TRUE(WriteMatrixTextFile(m, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream file_bytes;
  file_bytes << in.rdbuf();
  EXPECT_EQ(file_bytes.str(), want);
}

}  // namespace
}  // namespace dmc
