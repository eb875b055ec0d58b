// Binary row spill (matrix/row_spill.h): rows round-trip across block
// boundaries, and any damage to a spill — a truncation, a flipped bit, a
// dropped block, a forged row — is kDataLoss naming the file and byte
// offset before any row of the damaged block reaches the sink.

#include "matrix/row_spill.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace dmc {
namespace {

using Rows = std::vector<std::vector<ColumnId>>;

class RowSpillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = testing::TempDir() + "/" +
           std::string(info->test_suite_name()) + "_" + info->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/dmc_bucket_3.spill";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  RowSpillSummary Spill(const Rows& rows) {
    RowSpillWriter writer;
    EXPECT_TRUE(writer.Open(path_).ok());
    for (const auto& row : rows) EXPECT_TRUE(writer.AppendRow(row).ok());
    auto closed = writer.Finish();
    EXPECT_TRUE(closed.ok()) << closed.status();
    return closed.ok() ? *closed : RowSpillSummary{};
  }

  std::string Bytes() const {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  // Replays `bytes` as if read from path_, collecting what the sink saw.
  StatusOr<RowSpillSummary> Replay(const std::string& bytes,
                                   ColumnId num_columns, Rows* seen) const {
    std::istringstream in(bytes);
    return ReadRowSpill(in, path_, num_columns,
                        [seen](std::span<const ColumnId> row) {
                          seen->emplace_back(row.begin(), row.end());
                          return Status::OK();
                        });
  }

  // The damage contract: kDataLoss naming the file and a byte offset, and
  // the sink saw only whole rows from intact blocks — a prefix of `rows`.
  void ExpectDataLoss(const StatusOr<RowSpillSummary>& read, const Rows& rows,
                      const Rows& seen, const std::string& what) const {
    ASSERT_FALSE(read.ok()) << what << ": damage accepted";
    EXPECT_EQ(read.status().code(), StatusCode::kDataLoss) << what;
    const std::string& msg = read.status().message();
    EXPECT_NE(msg.find(path_), std::string::npos) << what << ": " << msg;
    EXPECT_NE(msg.find("at byte "), std::string::npos) << what << ": " << msg;
    ASSERT_LE(seen.size(), rows.size()) << what;
    for (size_t i = 0; i < seen.size(); ++i) {
      ASSERT_EQ(seen[i], rows[i]) << what << ": row " << i;
    }
  }

  std::string dir_;
  std::string path_;
};

// Byte offsets of the blocks in `bytes`, end block last.
std::vector<size_t> BlockOffsets(const std::string& bytes) {
  std::vector<size_t> offsets;
  size_t offset = 8;
  for (;;) {
    offsets.push_back(offset);
    uint32_t length = 0;
    std::memcpy(&length, bytes.data() + offset, 4);
    if (length == 0) return offsets;
    offset += 16 + length;
  }
}

Rows SmallRows() {
  return {{0, 3, 9}, {}, {1}, {2, 4, 5, 6, 7, 8}, {9}, {0, 130, 20000}};
}

TEST_F(RowSpillTest, RoundTripsRowsAcrossBlocks) {
  // ~160 KB of short rows (several blocks), empty rows, and one row whose
  // 140 KB encoding overflows a block on its own.
  Rows rows;
  for (uint32_t r = 0; r < 20000; ++r) {
    std::vector<ColumnId> row;
    for (uint32_t k = 0; k < r % 13; ++k) row.push_back(k * (1 + r % 50));
    rows.push_back(row);
    if (r == 7000) {
      std::vector<ColumnId> wide;
      for (ColumnId c = 0; c < 70000; ++c) wide.push_back(c * 200);
      rows.push_back(wide);
    }
  }
  const ColumnId num_columns = 70000 * 200;
  const RowSpillSummary written = Spill(rows);
  EXPECT_EQ(written.rows, rows.size());
  EXPECT_EQ(written.bytes, std::filesystem::file_size(path_));
  const std::string bytes = Bytes();
  EXPECT_GE(BlockOffsets(bytes).size(), 5u);

  Rows seen;
  const auto read = Replay(bytes, num_columns, &seen);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(seen, rows);
  EXPECT_EQ(read->rows, written.rows);
  EXPECT_EQ(read->bytes, written.bytes);
  EXPECT_EQ(read->digest, written.digest);

  // A verify-only read reports the same spill.
  std::istringstream in(bytes);
  const auto verified = ReadRowSpill(in, path_, num_columns, nullptr);
  ASSERT_TRUE(verified.ok()) << verified.status();
  EXPECT_EQ(verified->digest, written.digest);
}

TEST_F(RowSpillTest, EveryTruncationIsDataLoss) {
  const Rows rows = SmallRows();
  Spill(rows);
  const std::string whole = Bytes();
  for (size_t len = 0; len < whole.size(); ++len) {
    Rows seen;
    const auto read = Replay(whole.substr(0, len), 20001, &seen);
    ExpectDataLoss(read, rows, seen, "prefix " + std::to_string(len));
  }
}

TEST_F(RowSpillTest, EverySingleBitFlipIsDataLoss) {
  const Rows rows = SmallRows();
  Spill(rows);
  const std::string whole = Bytes();
  for (size_t i = 0; i < whole.size(); ++i) {
    std::string mutated = whole;
    mutated[i] = static_cast<char>(mutated[i] ^ (1u << (i % 8)));
    Rows seen;
    const auto read = Replay(mutated, 20001, &seen);
    ExpectDataLoss(read, rows, seen, "flipped byte " + std::to_string(i));
  }
}

TEST_F(RowSpillTest, TrailingBytesAreDataLoss) {
  const Rows rows = SmallRows();
  Spill(rows);
  Rows seen;
  const auto read = Replay(Bytes() + "x", 20001, &seen);
  ExpectDataLoss(read, rows, seen, "trailing byte");
  EXPECT_NE(read.status().message().find("trailing"), std::string::npos);
}

// Cutting a spill at a block boundary, or splicing a block out, leaves
// every remaining block intact on its own; the missing end block and the
// offsets sealed into each checksum catch both.
TEST_F(RowSpillTest, DroppedBlocksAreDataLoss) {
  Rows rows;
  for (uint32_t r = 0; r < 60000; ++r) rows.push_back({r % 7, 7 + r % 90});
  Spill(rows);
  const std::string whole = Bytes();
  const std::vector<size_t> offsets = BlockOffsets(whole);
  ASSERT_GE(offsets.size(), 4u);  // at least three data blocks

  Rows seen;
  auto read = Replay(whole.substr(0, offsets[1]), 100, &seen);
  ExpectDataLoss(read, rows, seen, "cut after the first block");
  EXPECT_NE(read.status().message().find("end block"), std::string::npos);
  EXPECT_FALSE(seen.empty());

  seen.clear();
  const std::string spliced =
      whole.substr(0, offsets[1]) + whole.substr(offsets[2]);
  read = Replay(spliced, 100, &seen);
  ExpectDataLoss(read, rows, seen, "second block dropped");
  EXPECT_NE(read.status().message().find(
                "at byte " + std::to_string(offsets[1])),
            std::string::npos)
      << read.status();
}

// A block whose checksum holds but whose rows are invalid (only a writer
// fed bad rows can make one) is refused whole: no row of it is replayed.
TEST_F(RowSpillTest, OutOfRangeIdNeverReachesTheSink) {
  const Rows rows = {{1, 2}, {3, 967}};
  Spill(rows);
  Rows seen;
  const auto read = Replay(Bytes(), 200, &seen);
  ExpectDataLoss(read, rows, seen, "id 967 of 200 columns");
  EXPECT_TRUE(seen.empty());
  EXPECT_NE(read.status().message().find("out of range"), std::string::npos)
      << read.status();
}

TEST_F(RowSpillTest, RepeatedIdNeverReachesTheSink) {
  const Rows rows = {{0}, {5, 5}};
  Spill(rows);
  Rows seen;
  const auto read = Replay(Bytes(), 200, &seen);
  ExpectDataLoss(read, rows, seen, "repeated id");
  EXPECT_TRUE(seen.empty());
  EXPECT_NE(read.status().message().find("out of order"), std::string::npos)
      << read.status();
}

}  // namespace
}  // namespace dmc
