#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "matrix/row_spill.h"
#include "util/atomic_io.h"
#include "util/checksum.h"

namespace dmc {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

ExternalCheckpoint SampleCheckpoint() {
  ExternalCheckpoint cp;
  cp.input = {123, 0xDEADBEEFull};
  cp.bucketed = true;
  cp.num_columns = 4;
  cp.num_rows = 9;
  cp.column_ones = {3, 0, 5, 1};
  cp.buckets.push_back({1, 4, 20, 0xABCDEF12345ull});
  cp.buckets.push_back({2, 5, 35, 77});
  return cp;
}

// Rewrites the version field of the checkpoint bytes and re-seals the
// trailing checksum (8 bytes before the 4-byte end magic), so only the
// version check can tell the result from a checkpoint this build wrote.
std::string WithVersion(std::string bytes, uint32_t version) {
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  const uint64_t h = Fnv1a(bytes.data(), bytes.size() - 12);
  std::memcpy(bytes.data() + bytes.size() - 12, &h, sizeof(h));
  return bytes;
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each case as its own parallel process; a per-case
    // directory keeps them from clobbering each other.
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = testing::TempDir() + "/" +
           std::string(info->test_suite_name()) + "_" + info->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/ckpt.bin";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  std::string path_;
};

TEST_F(CheckpointTest, RoundTripPreservesEveryField) {
  const ExternalCheckpoint cp = SampleCheckpoint();
  ASSERT_TRUE(WriteCheckpointFile(cp, path_).ok());
  auto read = ReadCheckpointFile(path_);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read->input == cp.input);
  EXPECT_EQ(read->bucketed, cp.bucketed);
  EXPECT_EQ(read->num_columns, cp.num_columns);
  EXPECT_EQ(read->num_rows, cp.num_rows);
  EXPECT_EQ(read->column_ones, cp.column_ones);
  ASSERT_EQ(read->buckets.size(), cp.buckets.size());
  for (size_t i = 0; i < cp.buckets.size(); ++i) {
    EXPECT_EQ(read->buckets[i].id, cp.buckets[i].id);
    EXPECT_EQ(read->buckets[i].rows, cp.buckets[i].rows);
    EXPECT_EQ(read->buckets[i].bytes, cp.buckets[i].bytes);
    EXPECT_EQ(read->buckets[i].digest, cp.buckets[i].digest);
  }
}

TEST_F(CheckpointTest, MissingFileIsIOError) {
  EXPECT_EQ(ReadCheckpointFile(dir_ + "/nope.bin").status().code(),
            StatusCode::kIOError);
}

TEST_F(CheckpointTest, EveryTruncationIsDataLoss) {
  ASSERT_TRUE(WriteCheckpointFile(SampleCheckpoint(), path_).ok());
  const std::string whole = ReadFileOrDie(path_);
  for (size_t len = 0; len < whole.size(); ++len) {
    ASSERT_TRUE(AtomicWriteFile(path_, whole.substr(0, len)).ok());
    const auto read = ReadCheckpointFile(path_);
    ASSERT_FALSE(read.ok()) << "prefix length " << len;
    EXPECT_EQ(read.status().code(), StatusCode::kDataLoss)
        << "prefix length " << len;
  }
}

TEST_F(CheckpointTest, EverySingleBitFlipIsDataLoss) {
  ASSERT_TRUE(WriteCheckpointFile(SampleCheckpoint(), path_).ok());
  const std::string whole = ReadFileOrDie(path_);
  for (size_t i = 0; i < whole.size(); ++i) {
    std::string mutated = whole;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x10);
    ASSERT_TRUE(AtomicWriteFile(path_, mutated).ok());
    const auto read = ReadCheckpointFile(path_);
    ASSERT_FALSE(read.ok()) << "flipped byte " << i;
    EXPECT_EQ(read.status().code(), StatusCode::kDataLoss)
        << "flipped byte " << i;
  }
}

TEST_F(CheckpointTest, TrailingGarbageIsDataLoss) {
  ASSERT_TRUE(WriteCheckpointFile(SampleCheckpoint(), path_).ok());
  ASSERT_TRUE(AtomicWriteFile(path_, ReadFileOrDie(path_) + "x").ok());
  EXPECT_EQ(ReadCheckpointFile(path_).status().code(),
            StatusCode::kDataLoss);
}

TEST_F(CheckpointTest, FutureVersionIsDataLossEvenWithValidChecksum) {
  // A checkpoint from a *newer* build is structurally sound and
  // checksums clean; only the version check can keep this build from
  // misparsing it. Bump the version and re-seal the checksum so that
  // check is the one being exercised.
  ASSERT_TRUE(WriteCheckpointFile(SampleCheckpoint(), path_).ok());
  const std::string bytes = ReadFileOrDie(path_);
  // Re-sealing with the version unchanged reproduces the file byte for
  // byte, so the seal below is one this build accepts.
  ASSERT_EQ(WithVersion(bytes, kCheckpointVersion), bytes);
  ASSERT_TRUE(
      AtomicWriteFile(path_, WithVersion(bytes, kCheckpointVersion + 1)).ok());
  const auto read = ReadCheckpointFile(path_);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(read.status().message().find("unsupported version"),
            std::string::npos)
      << read.status();
}

// A version-1 checkpoint recorded text buckets without digests; this
// build reads it as unsupported, so a resume falls back to a fresh run.
TEST_F(CheckpointTest, OlderVersionIsDataLoss) {
  ASSERT_TRUE(WriteCheckpointFile(SampleCheckpoint(), path_).ok());
  ASSERT_TRUE(
      AtomicWriteFile(path_, WithVersion(ReadFileOrDie(path_), 1)).ok());
  const auto read = ReadCheckpointFile(path_);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
}

TEST_F(CheckpointTest, FingerprintTracksContent) {
  const std::string input = dir_ + "/input.txt";
  ASSERT_TRUE(AtomicWriteFile(input, "0 1 2\n3\n").ok());
  auto a = FingerprintFile(input);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->bytes, 8u);
  auto again = FingerprintFile(input);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(*a == *again);
  ASSERT_TRUE(AtomicWriteFile(input, "0 1 2\n4\n").ok());
  auto changed = FingerprintFile(input);
  ASSERT_TRUE(changed.ok());
  EXPECT_FALSE(*a == *changed);
}

class ValidateCheckpointTest : public CheckpointTest {
 protected:
  void SetUp() override {
    CheckpointTest::SetUp();
    input_ = dir_ + "/input.txt";
    ASSERT_TRUE(AtomicWriteFile(input_, "0 1\n2\n0 2\n").ok());
    auto fp = FingerprintFile(input_);
    ASSERT_TRUE(fp.ok());
    cp_ = ExternalCheckpoint{};
    cp_.input = *fp;
    cp_.bucketed = true;
    cp_.num_columns = 3;
    cp_.num_rows = 3;
    cp_.column_ones = {2, 1, 2};
    cp_.buckets.push_back({0, 0, 0, 0});
    WriteBucket(&cp_.buckets.back(), {{2}});
    cp_.buckets.push_back({1, 0, 0, 0});
    WriteBucket(&cp_.buckets.back(), {{0, 1}, {0, 2}});
  }

  // Spills `rows` as bucket `b->id` and records what the spill holds.
  void WriteBucket(ExternalCheckpoint::Bucket* b,
                   const std::vector<std::vector<ColumnId>>& rows) {
    RowSpillWriter writer;
    ASSERT_TRUE(writer.Open(ExternalBucketPath(dir_, b->id)).ok());
    for (const auto& row : rows) ASSERT_TRUE(writer.AppendRow(row).ok());
    const auto spill = writer.Finish();
    ASSERT_TRUE(spill.ok()) << spill.status();
    b->rows = spill->rows;
    b->bytes = spill->bytes;
    b->digest = spill->digest;
  }

  std::string input_;
  ExternalCheckpoint cp_;
};

TEST_F(ValidateCheckpointTest, IntactStateValidates) {
  EXPECT_TRUE(ValidateCheckpoint(cp_, input_, dir_).ok());
}

TEST_F(ValidateCheckpointTest, ChangedInputIsFailedPrecondition) {
  ASSERT_TRUE(AtomicWriteFile(input_, "0 1\n2\n0 1\n").ok());
  EXPECT_EQ(ValidateCheckpoint(cp_, input_, dir_).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ValidateCheckpointTest, MissingBucketFileIsDataLoss) {
  std::filesystem::remove(ExternalBucketPath(dir_, 1));
  EXPECT_EQ(ValidateCheckpoint(cp_, input_, dir_).code(),
            StatusCode::kDataLoss);
}

TEST_F(ValidateCheckpointTest, ResizedBucketFileIsDataLoss) {
  const std::string bucket = ExternalBucketPath(dir_, 1);
  std::filesystem::resize_file(bucket,
                               std::filesystem::file_size(bucket) - 1);
  EXPECT_EQ(ValidateCheckpoint(cp_, input_, dir_).code(),
            StatusCode::kDataLoss);
}

// Resume reads every spill back: a damaged byte is caught even when the
// file keeps its size, and the error names the bucket and byte offset.
TEST_F(ValidateCheckpointTest, DamagedBucketOfTheSameSizeIsDataLoss) {
  const std::string bucket = ExternalBucketPath(dir_, 1);
  std::string bytes = ReadFileOrDie(bucket);
  // The end block is the last 16 bytes; before it, the only data block's
  // 6-byte payload.
  bytes[bytes.size() - 20] ^= 0x01;
  ASSERT_TRUE(AtomicWriteFile(bucket, bytes).ok());
  const Status st = ValidateCheckpoint(cp_, input_, dir_);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_NE(st.message().find(bucket), std::string::npos) << st;
  EXPECT_NE(st.message().find("at byte "), std::string::npos) << st;
}

// An intact spill that is not the one the checkpoint recorded — same
// rows, same size, other content — fails on its digest.
TEST_F(ValidateCheckpointTest, OtherSpillOfTheSameShapeIsDataLoss) {
  ExternalCheckpoint::Bucket swapped = cp_.buckets[1];
  WriteBucket(&swapped, {{0, 2}, {0, 1}});
  ASSERT_EQ(swapped.rows, cp_.buckets[1].rows);
  ASSERT_EQ(swapped.bytes, cp_.buckets[1].bytes);
  EXPECT_EQ(ValidateCheckpoint(cp_, input_, dir_).code(),
            StatusCode::kDataLoss);
}

}  // namespace
}  // namespace dmc
