#include "core/parallel_dmc.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/streaming_pass.h"
#include "datagen/news_gen.h"
#include "datagen/quest_gen.h"
#include "util/random.h"

namespace dmc {
namespace {

BinaryMatrix Workload(uint64_t seed) {
  QuestOptions q;
  q.num_transactions = 2000;
  q.num_items = 300;
  q.seed = seed;
  return GenerateQuest(q);
}

TEST(ColumnShardsTest, PartitionIsDisjointAndComplete) {
  std::vector<uint32_t> ones{5, 1, 9, 0, 3, 3, 7, 2};
  const auto shards = MakeColumnShards(ones, 3);
  ASSERT_EQ(shards.size(), 3u);
  for (size_t c = 0; c < ones.size(); ++c) {
    int owners = 0;
    for (const auto& s : shards) owners += s[c];
    EXPECT_EQ(owners, 1) << "column " << c;
  }
}

TEST(ColumnShardsTest, NoShardWithoutAColumn) {
  // More shards asked for than there are columns: one shard per column,
  // each owning exactly one; no columns at all still yields one shard.
  const std::vector<uint32_t> ones{5, 1, 9};
  const auto shards = MakeColumnShards(ones, 8);
  ASSERT_EQ(shards.size(), ones.size());
  for (const auto& s : shards) {
    EXPECT_EQ(std::count(s.begin(), s.end(), 1), 1);
  }
  for (size_t c = 0; c < ones.size(); ++c) {
    int owners = 0;
    for (const auto& s : shards) owners += s[c];
    EXPECT_EQ(owners, 1) << "column " << c;
  }
  EXPECT_EQ(MakeColumnShards({}, 4).size(), 1u);
}

TEST(ColumnShardsTest, LoadIsBalanced) {
  std::vector<uint32_t> ones(100);
  Rng rng(3);
  uint64_t total = 0;
  for (auto& o : ones) {
    o = static_cast<uint32_t>(rng.Uniform(1000));
    total += o;
  }
  const auto shards = MakeColumnShards(ones, 4);
  for (const auto& s : shards) {
    uint64_t load = 0;
    for (size_t c = 0; c < ones.size(); ++c) {
      if (s[c]) load += ones[c];
    }
    // Greedy LPT keeps every shard within a generous factor of fair.
    EXPECT_LT(load, total / 4 + 1100);
  }
}

TEST(ParallelDmcTest, ImplicationsMatchSerial) {
  const BinaryMatrix m = Workload(21);
  ImplicationMiningOptions o;
  o.min_confidence = 0.85;
  auto serial = MineImplications(m, o);
  ASSERT_TRUE(serial.ok());
  for (uint32_t threads : {1u, 2u, 3u, 8u}) {
    ParallelOptions p;
    p.num_threads = threads;
    ParallelMiningStats stats;
    auto parallel = MineImplicationsParallel(m, o, p, &stats);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->Pairs(), serial->Pairs()) << threads;
    EXPECT_EQ(stats.shards, threads);
  }
}

TEST(ParallelDmcTest, SimilaritiesMatchSerial) {
  const BinaryMatrix m = Workload(22);
  SimilarityMiningOptions o;
  o.min_similarity = 0.7;
  auto serial = MineSimilarities(m, o);
  ASSERT_TRUE(serial.ok());
  for (uint32_t threads : {2u, 4u}) {
    ParallelOptions p;
    p.num_threads = threads;
    auto parallel = MineSimilaritiesParallel(m, o, p);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->Pairs(), serial->Pairs()) << threads;
  }
}

TEST(ParallelDmcTest, IdenticalColumnPhaseSharded) {
  // Exercises the s = 1.0 equal-bitmap fast path under sharding with the
  // bitmap fallback forced: identical pairs must be emitted exactly once
  // (by the shard owning the lower column id).
  MatrixBuilder b(6);
  for (int i = 0; i < 10; ++i) b.AddRow({0, 3});        // c0 == c3
  for (int i = 0; i < 8; ++i) b.AddRow({1, 4, 5});      // c1 == c4 == c5
  for (int i = 0; i < 5; ++i) b.AddRow({2});
  const BinaryMatrix m = b.Build();
  SimilarityMiningOptions o;
  o.min_similarity = 1.0;
  o.policy.bitmap_fallback = true;
  o.policy.memory_threshold_bytes = 0;
  o.policy.bitmap_max_remaining_rows = 100;  // whole scan via bitmaps
  auto serial = MineSimilarities(m, o);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial->size(), 4u);  // (0,3), (1,4), (1,5), (4,5)
  for (uint32_t threads : {2u, 3u}) {
    ParallelOptions p;
    p.num_threads = threads;
    auto parallel = MineSimilaritiesParallel(m, o, p);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->Pairs(), serial->Pairs()) << threads;
  }
}

TEST(ParallelDmcTest, ShardedCountsAreExact) {
  // Each shard's rules carry exact counts identical to the serial run's.
  const BinaryMatrix m = Workload(23);
  ImplicationMiningOptions o;
  o.min_confidence = 0.8;
  auto serial = MineImplications(m, o);
  ASSERT_TRUE(serial.ok());
  ParallelOptions p;
  p.num_threads = 4;
  auto parallel = MineImplicationsParallel(m, o, p);
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(parallel->size(), serial->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    EXPECT_EQ(parallel->rules()[i], serial->rules()[i]);
  }
}

TEST(ParallelDmcTest, MoreShardsThanColumns) {
  const BinaryMatrix m =
      BinaryMatrix::FromRows(3, {{0, 1, 2}, {0, 1}, {2}});
  ImplicationMiningOptions o;
  o.min_confidence = 0.5;
  ParallelOptions p;
  p.num_threads = 16;
  ParallelMiningStats stats;
  auto parallel = MineImplicationsParallel(m, o, p, &stats);
  auto serial = MineImplications(m, o);
  ASSERT_TRUE(parallel.ok());
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(parallel->Pairs(), serial->Pairs());
  // One thread per column: a shard without an antecedent would only
  // stream every row through a pass that merges nothing.
  EXPECT_EQ(stats.shards, 3u);
  EXPECT_EQ(stats.per_shard.size(), 3u);
}

TEST(ParallelDmcTest, InvalidThresholdPropagates) {
  const BinaryMatrix m = Workload(24);
  ImplicationMiningOptions o;
  o.min_confidence = 2.0;
  ParallelOptions p;
  p.num_threads = 2;
  EXPECT_FALSE(MineImplicationsParallel(m, o, p).ok());
}

TEST(ParallelDmcTest, StatsAggregation) {
  const BinaryMatrix m = Workload(25);
  ImplicationMiningOptions o;
  o.min_confidence = 0.9;
  ParallelOptions p;
  p.num_threads = 3;
  ParallelMiningStats stats;
  ASSERT_TRUE(MineImplicationsParallel(m, o, p, &stats).ok());
  EXPECT_EQ(stats.shards, 3u);
  EXPECT_GE(stats.sum_shard_seconds, stats.max_shard_seconds);
  EXPECT_GE(stats.total_seconds, stats.max_shard_seconds);
}

TEST(ParallelDmcTest, ShardedSubsetOfSerial) {
  // A single shard alone yields exactly the serial rules whose lhs lies
  // in the shard.
  const BinaryMatrix m = Workload(26);
  ImplicationMiningOptions o;
  o.min_confidence = 0.8;
  auto serial = MineImplications(m, o);
  ASSERT_TRUE(serial.ok());
  const auto shards = MakeColumnShards(m.column_ones(), 2);
  auto part = MineMatrix<ImplicationKind>(m, o, &shards[0], nullptr);
  ASSERT_TRUE(part.ok());
  ImplicationRuleSet expected;
  for (const auto& r : *serial) {
    if (shards[0][r.lhs]) expected.Add(r);
  }
  expected.Canonicalize();
  EXPECT_EQ(part->Pairs(), expected.Pairs());
}

}  // namespace
}  // namespace dmc
