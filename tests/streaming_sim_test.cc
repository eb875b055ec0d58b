#include "core/streaming_sim.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "baselines/bruteforce.h"
#include "core/dmc_sim.h"
#include "core/external_miner.h"
#include "core/kernels.h"
#include "datagen/dictionary_gen.h"
#include "datagen/quest_gen.h"
#include "matrix/matrix_io.h"
#include "matrix/row_order.h"

namespace dmc {
namespace {

BinaryMatrix Workload(uint64_t seed) {
  QuestOptions q;
  q.num_transactions = 1200;
  q.num_items = 180;
  q.seed = seed;
  return GenerateQuest(q);
}

auto MatrixReplay(const BinaryMatrix& m, const std::vector<RowId>& order) {
  return [&m, &order](auto&& sink) {
    for (RowId r : order) sink(m.Row(r));
  };
}

TEST(StreamingSimTest, MatchesBatchEngine) {
  const BinaryMatrix m = Workload(41);
  const auto order = DensityBucketOrder(m).order;
  for (double s : {0.5, 0.8, 1.0}) {
    SimilarityMiningOptions o;
    o.min_similarity = s;
    auto batch = MineSimilarities(m, o);
    ASSERT_TRUE(batch.ok());
    auto streamed =
        StreamSimilarities(m.num_columns(), m.column_ones(), m.num_rows(),
                           o, MatrixReplay(m, order));
    ASSERT_TRUE(streamed.ok()) << streamed.status();
    EXPECT_EQ(streamed->Pairs(), batch->Pairs()) << s;
  }
}

TEST(StreamingSimTest, BitmapModeMatches) {
  const BinaryMatrix m = Workload(42);
  const auto order = DensityBucketOrder(m).order;
  SimilarityMiningOptions o;
  o.min_similarity = 0.7;
  o.policy.bitmap_fallback = true;
  o.policy.memory_threshold_bytes = 1;
  o.policy.bitmap_max_remaining_rows = 200;
  auto streamed =
      StreamSimilarities(m.num_columns(), m.column_ones(), m.num_rows(), o,
                         MatrixReplay(m, order));
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(streamed->Pairs(), BruteForceSimilarities(m, 0.7).Pairs());
}

TEST(StreamingSimTest, PruningFlagsMatch) {
  const BinaryMatrix m = Workload(43);
  const auto order = IdentityOrder(m);
  const auto truth = BruteForceSimilarities(m, 0.6).Pairs();
  for (bool density : {false, true}) {
    for (bool maxhits : {false, true}) {
      SimilarityMiningOptions o;
      o.min_similarity = 0.6;
      o.policy.column_density_pruning = density;
      o.policy.max_hits_pruning = maxhits;
      auto streamed = StreamSimilarities(
          m.num_columns(), m.column_ones(), m.num_rows(), o,
          MatrixReplay(m, order));
      ASSERT_TRUE(streamed.ok());
      EXPECT_EQ(streamed->Pairs(), truth)
          << density << " " << maxhits;
    }
  }
}

TEST(StreamingSimTest, RejectsShortStream) {
  const BinaryMatrix m = Workload(44);
  SimilarityMiningOptions o;
  o.min_similarity = 0.8;
  auto truncated = [&m](auto&& sink) {
    for (RowId r = 0; r + 1 < m.num_rows(); ++r) sink(m.Row(r));
  };
  auto streamed = StreamSimilarities(
      m.num_columns(), m.column_ones(), m.num_rows(), o, truncated);
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ExternalSimMinerTest, MatchesInMemoryMining) {
  DictionaryOptions gen;
  gen.num_head_words = 400;
  gen.num_definition_words = 300;
  gen.num_synonym_groups = 20;
  const BinaryMatrix m = GenerateDictionary(gen).matrix;

  const std::string dir = testing::TempDir();
  const std::string path = dir + "/external_sim_test.txt";
  ASSERT_TRUE(WriteMatrixTextFile(m, path).ok());

  for (double s : {0.8, 1.0}) {
    SimilarityMiningOptions o;
    o.min_similarity = s;
    auto in_memory = MineSimilarities(m, o);
    ASSERT_TRUE(in_memory.ok());
    ExternalMiningStats stats;
    auto external = MineSimilaritiesFromFile(path, o, dir, &stats);
    ASSERT_TRUE(external.ok()) << external.status();
    EXPECT_EQ(external->Pairs(), in_memory->Pairs()) << s;
    EXPECT_EQ(stats.rows, m.num_rows());
  }
}

// Similarity counterpart of ExternalMinerTest.ReportsTheInMemoryScanStats.
TEST(ExternalSimMinerTest, ReportsTheInMemoryScanStats) {
  const std::string dir = testing::TempDir() + "/external_scan_stats_sim";
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
    SimilarityMiningOptions o;
    o.min_similarity = 0.5;
    MiningStats in_memory_stats;
    auto in_memory = MineSimilarities(m, o, &in_memory_stats);
    ASSERT_TRUE(in_memory.ok());
    ExternalMiningStats stats;
    auto external = MineSimilaritiesFromFile(path, o, dir, &stats);
    ASSERT_TRUE(external.ok()) << external.status();
    EXPECT_EQ(external->pairs(), in_memory->pairs());
    const MiningStats& scan = stats.mining;
    EXPECT_GT(scan.peak_counter_bytes, 0u);
    EXPECT_EQ(scan.peak_counter_bytes, in_memory_stats.peak_counter_bytes);
    EXPECT_EQ(scan.peak_candidates, in_memory_stats.peak_candidates);
    EXPECT_EQ(scan.columns_cut_off, in_memory_stats.columns_cut_off);
    EXPECT_EQ(scan.rules_from_hundred_phase,
              in_memory_stats.rules_from_hundred_phase);
    EXPECT_EQ(scan.rules_from_sub_phase, in_memory_stats.rules_from_sub_phase);
    EXPECT_EQ(scan.kernel, in_memory_stats.kernel);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dmc
