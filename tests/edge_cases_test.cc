// Contract (death) tests and degenerate-input edges across modules.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/miss_counter_table.h"
#include "matrix/column_stats.h"
#include "matrix/row_order.h"
#include "rules/grouping.h"
#include "util/bitvector.h"

namespace dmc {
namespace {

using EdgeDeathTest = testing::Test;

TEST(EdgeDeathTest, TableCreateTwiceAborts) {
  MemoryTracker tracker;
  MissCounterTable t(4, 8, &tracker);
  t.Create(0);
  EXPECT_DEATH(t.Create(0), "Check failed");
}

TEST(EdgeDeathTest, TableAssignWithoutCreateAborts) {
  MemoryTracker tracker;
  MissCounterTable t(4, 8, &tracker);
  const ColumnId cand[] = {1};
  const uint32_t miss[] = {0};
  EXPECT_DEATH(t.Assign(0, cand, miss, 1), "Check failed");
}

TEST(EdgeDeathTest, TableSetSizeBeyondCapacityAborts) {
  MemoryTracker tracker;
  MissCounterTable t(4, 8, &tracker);
  t.Create(0);
  EXPECT_DEATH(t.SetSize(0, 1), "Check failed");  // capacity still 0
}

TEST(EdgeDeathTest, TableReleaseWithoutCreateAborts) {
  MemoryTracker tracker;
  MissCounterTable t(4, 8, &tracker);
  EXPECT_DEATH(t.Release(2), "Check failed");
}

TEST(EdgeDeathTest, BitVectorOutOfRangeAborts) {
  BitVector bv(8);
  EXPECT_DEATH(bv.Set(8), "Check failed");
}

TEST(EdgeDeathTest, BitVectorSizeMismatchAborts) {
  BitVector a(8), b(9);
  EXPECT_DEATH((void)a.AndNotCount(b), "Check failed");
}

TEST(EdgeDeathTest, MatrixColumnOutOfRangeAborts) {
  EXPECT_DEATH(BinaryMatrix::FromRows(2, {{0, 2}}), "Check failed");
}

TEST(EdgeCasesTest, EmptyMatrixEverywhere) {
  const BinaryMatrix m;
  EXPECT_TRUE(IdentityOrder(m).empty());
  EXPECT_TRUE(SortedByDensityOrder(m).empty());
  EXPECT_TRUE(DensityBucketOrder(m).order.empty());
  EXPECT_TRUE(ComputeColumnDensityHistogram(m).entries.empty());
  const MatrixSummary s = Summarize(m);
  EXPECT_EQ(s.rows, 0u);
  EXPECT_EQ(s.ones, 0u);
}

TEST(EdgeCasesTest, AllZeroRowsMatrix) {
  const BinaryMatrix m = BinaryMatrix::FromRows(3, {{}, {}, {}, {}});
  EXPECT_EQ(m.num_ones(), 0u);
  ImplicationMiningOptions io;
  io.min_confidence = 0.5;
  auto rules = MineImplications(m, io);
  ASSERT_TRUE(rules.ok());
  EXPECT_TRUE(rules->empty());
  SimilarityMiningOptions so;
  so.min_similarity = 0.5;
  auto pairs = MineSimilarities(m, so);
  ASSERT_TRUE(pairs.ok());
  EXPECT_TRUE(pairs->empty());
}

TEST(EdgeCasesTest, SingleRowMatrixFullClique) {
  // One row with k columns: every ordered pair is a 100%-confidence rule
  // (ties by id), every unordered pair an identical pair.
  const BinaryMatrix m = BinaryMatrix::FromRows(4, {{0, 1, 2, 3}});
  ImplicationMiningOptions io;
  io.min_confidence = 1.0;
  auto rules = MineImplications(m, io);
  ASSERT_TRUE(rules.ok());
  EXPECT_EQ(rules->size(), 6u);  // i < j pairs
  SimilarityMiningOptions so;
  so.min_similarity = 1.0;
  auto pairs = MineSimilarities(m, so);
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(pairs->size(), 6u);
}

TEST(EdgeCasesTest, ThresholdEpsilonBoundaries) {
  // Rules sitting exactly AT the threshold must be included; epsilon
  // handling must not admit rules strictly below it.
  MatrixBuilder b(2);
  for (int i = 0; i < 9; ++i) b.AddRow({0, 1});
  b.AddRow({0});
  b.AddRow({1});
  const BinaryMatrix m = b.Build();  // conf(c0=>c1) = 9/10 exactly
  // At the exact rational boundary the rule is included; clearly above
  // it (beyond the documented 1e-6 rounding guard) it is excluded.
  for (double conf : {0.9, 0.91}) {
    ImplicationMiningOptions o;
    o.min_confidence = conf;
    auto rules = MineImplications(m, o);
    ASSERT_TRUE(rules.ok());
    const bool expect_rule = conf <= 0.9;
    EXPECT_EQ(rules->size() == 1, expect_rule) << conf;
  }
}

TEST(EdgeCasesTest, ExpandFromSeedOnEmptyRuleSet) {
  EXPECT_TRUE(ExpandFromSeed(ImplicationRuleSet(), 0).empty());
}

TEST(EdgeCasesTest, SupportPruneEmptyMatrix) {
  const PrunedMatrix p = SupportPruneColumns(BinaryMatrix(), 1);
  EXPECT_EQ(p.matrix.num_columns(), 0u);
  EXPECT_TRUE(p.original_column.empty());
}

TEST(EdgeCasesTest, HugeThresholdEdge) {
  // minsim exactly 1.0 and barely below.
  MatrixBuilder b(2);
  for (int i = 0; i < 100; ++i) b.AddRow({0, 1});
  b.AddRow({0});
  const BinaryMatrix m = b.Build();  // sim = 100/101
  SimilarityMiningOptions o;
  o.min_similarity = 1.0;
  auto exact = MineSimilarities(m, o);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(exact->empty());
  o.min_similarity = 100.0 / 101.0;
  auto at = MineSimilarities(m, o);
  ASSERT_TRUE(at.ok());
  EXPECT_EQ(at->size(), 1u);
}

}  // namespace
}  // namespace dmc
