#include "core/streaming_pass.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "baselines/bruteforce.h"
#include "core/dmc_imp.h"
#include "core/external_miner.h"
#include "core/kernels.h"
#include "datagen/quest_gen.h"
#include "datagen/weblog_gen.h"
#include "matrix/matrix_io.h"
#include "matrix/row_order.h"

namespace dmc {
namespace {

BinaryMatrix Workload(uint64_t seed) {
  QuestOptions q;
  q.num_transactions = 1500;
  q.num_items = 200;
  q.seed = seed;
  return GenerateQuest(q);
}

// Replays the in-memory matrix in a given order.
auto MatrixReplay(const BinaryMatrix& m, const std::vector<RowId>& order) {
  return [&m, &order](auto&& sink) {
    for (RowId r : order) sink(m.Row(r));
  };
}

TEST(StreamingImpTest, MatchesBatchEngine) {
  const BinaryMatrix m = Workload(31);
  const auto order = DensityBucketOrder(m).order;
  for (double conf : {0.7, 0.9, 1.0}) {
    ImplicationMiningOptions o;
    o.min_confidence = conf;
    auto batch = MineImplications(m, o);
    ASSERT_TRUE(batch.ok());
    auto streamed = StreamPhases<ImplicationKind>(
        m.num_columns(), m.column_ones(), m.num_rows(), o,
        MatrixReplay(m, order));
    ASSERT_TRUE(streamed.ok()) << streamed.status();
    EXPECT_EQ(streamed->Pairs(), batch->Pairs()) << conf;
  }
}

TEST(StreamingImpTest, BitmapModeMatches) {
  const BinaryMatrix m = Workload(32);
  const auto order = DensityBucketOrder(m).order;
  ImplicationMiningOptions o;
  o.min_confidence = 0.85;
  o.policy.bitmap_fallback = true;
  o.policy.memory_threshold_bytes = 1;
  o.policy.bitmap_max_remaining_rows = 300;
  auto streamed = StreamPhases<ImplicationKind>(
      m.num_columns(), m.column_ones(), m.num_rows(), o,
      MatrixReplay(m, order));
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(streamed->Pairs(), BruteForceImplications(m, 0.85).Pairs());
}

TEST(StreamingImpTest, RejectsShortStream) {
  const BinaryMatrix m = Workload(33);
  ImplicationMiningOptions o;
  o.min_confidence = 0.9;
  auto truncated = [&m](auto&& sink) {
    for (RowId r = 0; r + 1 < m.num_rows(); ++r) sink(m.Row(r));
  };
  auto streamed = StreamPhases<ImplicationKind>(
      m.num_columns(), m.column_ones(), m.num_rows(), o, truncated);
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(StreamingImpTest, PassExposesProgress) {
  const BinaryMatrix m = Workload(34);
  StreamingPass<ImplicationKind>::Config cfg;
  cfg.num_columns = m.num_columns();
  cfg.ones = m.column_ones();
  cfg.total_rows = m.num_rows();
  cfg.threshold = 1.0;
  StreamingPass<ImplicationKind> pass(std::move(cfg));
  EXPECT_EQ(pass.rows_seen(), 0u);
  pass.ProcessRow(m.Row(0));
  EXPECT_EQ(pass.rows_seen(), 1u);
  EXPECT_FALSE(pass.bitmap_mode());
}

TEST(ExternalMinerTest, MatchesInMemoryMining) {
  WebLogOptions gen;
  gen.num_clients = 600;
  gen.num_urls = 150;
  gen.num_crawlers = 2;
  const BinaryMatrix m = GenerateWebLog(gen);

  const std::string dir = testing::TempDir();
  const std::string path = dir + "/external_miner_test.txt";
  ASSERT_TRUE(WriteMatrixTextFile(m, path).ok());

  for (double conf : {0.85, 1.0}) {
    ImplicationMiningOptions o;
    o.min_confidence = conf;
    auto in_memory = MineImplications(m, o);
    ASSERT_TRUE(in_memory.ok());

    ExternalMiningStats stats;
    auto external = MineImplicationsFromFile(path, o, dir, &stats);
    ASSERT_TRUE(external.ok()) << external.status();
    EXPECT_EQ(external->Pairs(), in_memory->Pairs()) << conf;
    EXPECT_EQ(stats.rows, m.num_rows());
    EXPECT_GT(stats.bucket_files, 1u);
  }
}

TEST(ExternalMinerTest, IdentityOrderSkipsPartitioning) {
  const BinaryMatrix m = Workload(35);
  const std::string dir = testing::TempDir();
  const std::string path = dir + "/external_identity_test.txt";
  ASSERT_TRUE(WriteMatrixTextFile(m, path).ok());

  ImplicationMiningOptions o;
  o.min_confidence = 0.9;
  o.policy.row_order = RowOrderPolicy::kIdentity;
  ExternalMiningStats stats;
  auto external = MineImplicationsFromFile(path, o, dir, &stats);
  ASSERT_TRUE(external.ok());
  // Identity order spills one bucket, in input order.
  EXPECT_EQ(stats.bucket_files, 1u);
  auto in_memory = MineImplications(m, o);
  ASSERT_TRUE(in_memory.ok());
  EXPECT_EQ(external->Pairs(), in_memory->Pairs());
}

// Pass 1 is the only read of the text under identity order too: once
// Prepare() has spilled the rows, Replay() needs the input no more and
// yields every row in input order.
TEST(ExternalMinerTest, IdentityReplayReadsTheSpillNotTheInput) {
  const BinaryMatrix m = Workload(36);
  const std::string dir = testing::TempDir() + "/external_identity_replay";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/input.txt";
  ASSERT_TRUE(WriteMatrixTextFile(m, path).ok());

  ExternalMiningStats stats;
  std::vector<std::vector<ColumnId>> replayed;
  {
    ExternalInput input(path, dir, /*bucketed=*/false, ExternalIoOptions{},
                        ObserveContext{}, &stats);
    ASSERT_TRUE(input.Prepare().ok());
    ASSERT_TRUE(std::filesystem::remove(path));
    const Status st = input.Replay(
        [&](std::span<const ColumnId> row) {
          replayed.emplace_back(row.begin(), row.end());
        },
        "streaming.imp.row");
    ASSERT_TRUE(st.ok()) << st;
  }
  EXPECT_EQ(stats.bucket_files, 1u);
  ASSERT_EQ(replayed.size(), m.num_rows());
  for (RowId r = 0; r < m.num_rows(); ++r) {
    const auto row = m.Row(r);
    EXPECT_EQ(replayed[r], std::vector<ColumnId>(row.begin(), row.end()))
        << "row " << r;
  }
  std::filesystem::remove_all(dir);
}

TEST(ExternalMinerTest, MissingFileFails) {
  ImplicationMiningOptions o;
  auto result = MineImplicationsFromFile("/no/such/file.txt", o,
                                         testing::TempDir());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(ExternalMinerTest, CleansUpBucketFiles) {
  const BinaryMatrix m = Workload(36);
  const std::string dir = testing::TempDir() + "/external_cleanup";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/input.txt";
  ASSERT_TRUE(WriteMatrixTextFile(m, path).ok());
  ImplicationMiningOptions o;
  o.min_confidence = 0.9;
  ExternalMiningStats stats;
  ASSERT_TRUE(MineImplicationsFromFile(path, o, dir, &stats).ok());
  ASSERT_GT(stats.bucket_files, 1u);  // there were files to clean up
  // No bucket file of any id or extension is left behind.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(entry.path().filename().string().rfind("dmc_bucket_", 0), 0u)
        << entry.path();
  }
  std::filesystem::remove_all(dir);
}

// The external run's scan is the in-memory mine's scan over the same
// rows in the same order, so its MiningStats — exported as the "mining"
// block — carry the same deterministic figures. The wide Quest baskets
// fall on the mask side of the kernel selection, the narrow block matrix
// on the vector side.
TEST(ExternalMinerTest, ReportsTheInMemoryScanStats) {
  const std::string dir = testing::TempDir() + "/external_scan_stats_imp";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/input.txt";
  MatrixBuilder blocks(48);
  for (uint32_t r = 0; r < 400; ++r) {
    std::vector<ColumnId> row;
    for (ColumnId c = 0; c < 48; ++c) {
      if ((c / 8 == r % 6 && (r + c) % 11 != 0) || (r * 7 + c) % 13 == 0) {
        row.push_back(c);
      }
    }
    blocks.AddRow(row);
  }
  QuestOptions wide;
  wide.num_transactions = 3000;
  wide.num_items = 1000;
  wide.seed = 2;
  for (const BinaryMatrix& m : {GenerateQuest(wide), blocks.Build()}) {
    ASSERT_GT(m.column_ones().back(), 0u);  // the file has every column
    const bool vector_side = m.num_columns() <= 64;
    EXPECT_EQ(kernels::PreferVectorSweep(m.num_columns(), m.num_rows(),
                                         m.num_ones()),
              vector_side && kernels::VectorSweepAvailable());
    ASSERT_TRUE(WriteMatrixTextFile(m, path).ok());
    ImplicationMiningOptions o;
    o.min_confidence = 0.7;
    MiningStats in_memory_stats;
    auto in_memory = MineImplications(m, o, &in_memory_stats);
    ASSERT_TRUE(in_memory.ok());
    ExternalMiningStats stats;
    auto external = MineImplicationsFromFile(path, o, dir, &stats);
    ASSERT_TRUE(external.ok()) << external.status();
    EXPECT_EQ(external->rules(), in_memory->rules());
    const MiningStats& scan = stats.mining;
    EXPECT_GT(scan.peak_counter_bytes, 0u);
    EXPECT_EQ(scan.peak_counter_bytes, in_memory_stats.peak_counter_bytes);
    EXPECT_EQ(scan.peak_candidates, in_memory_stats.peak_candidates);
    EXPECT_EQ(scan.columns_cut_off, in_memory_stats.columns_cut_off);
    EXPECT_EQ(scan.rules_from_hundred_phase,
              in_memory_stats.rules_from_hundred_phase);
    EXPECT_EQ(scan.rules_from_sub_phase, in_memory_stats.rules_from_sub_phase);
    EXPECT_EQ(scan.kernel, in_memory_stats.kernel);
    EXPECT_GE(scan.total_seconds, stats.mine_seconds);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dmc
