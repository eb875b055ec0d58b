// RuleIndex serving layer: query semantics, exact confidence ordering,
// snapshot immutability under Publish, and (under TSan) queries racing
// snapshot swaps.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "rules/rule_index.h"

namespace dmc {
namespace {

ImplicationRule MakeRule(ColumnId lhs, ColumnId rhs, uint32_t lhs_ones,
                         uint32_t misses) {
  return ImplicationRule{lhs, rhs, lhs_ones, misses};
}

ImplicationRuleSet SampleRules() {
  ImplicationRuleSet rules;
  rules.Add(MakeRule(0, 1, 10, 0));   // conf 1.0
  rules.Add(MakeRule(0, 2, 10, 2));   // conf 0.8
  rules.Add(MakeRule(0, 3, 10, 1));   // conf 0.9
  rules.Add(MakeRule(1, 2, 20, 4));   // conf 0.8
  rules.Add(MakeRule(2, 1, 5, 1));    // conf 0.8
  rules.Add(MakeRule(3, 1, 8, 0));    // conf 1.0
  return rules;
}

TEST(HigherConfidenceTest, ExactOrderingAndTies) {
  // 2/3 vs 0.666...: cross-multiplication must get this right where
  // doubles could tie.
  EXPECT_TRUE(HigherConfidence(MakeRule(0, 1, 3, 1),      // 2/3
                               MakeRule(0, 2, 1000000, 333334)));
  // Equal confidence (4/5 == 16/20): falls back to (lhs, rhs) order.
  EXPECT_TRUE(HigherConfidence(MakeRule(1, 2, 5, 1), MakeRule(2, 1, 20, 4)));
  EXPECT_FALSE(HigherConfidence(MakeRule(2, 1, 20, 4), MakeRule(1, 2, 5, 1)));
  // Zero-antecedent rules order as confidence 0, after everything else.
  EXPECT_TRUE(HigherConfidence(MakeRule(5, 6, 4, 3), MakeRule(0, 1, 0, 0)));
  // Malformed (misses > ones) clamps to confidence 0 instead of wrapping.
  EXPECT_FALSE(HigherConfidence(MakeRule(0, 1, 2, 5), MakeRule(5, 6, 4, 3)));
}

TEST(RuleIndexSnapshotTest, QueryByAntecedentSortsByConfidence) {
  const auto snap = RuleIndexSnapshot::Build(SampleRules(), 7);
  EXPECT_EQ(snap->generation(), 7u);
  EXPECT_EQ(snap->size(), 6u);

  const auto from0 = snap->QueryByAntecedent(0);
  ASSERT_EQ(from0.size(), 3u);
  EXPECT_EQ(from0[0], MakeRule(0, 1, 10, 0));
  EXPECT_EQ(from0[1], MakeRule(0, 3, 10, 1));
  EXPECT_EQ(from0[2], MakeRule(0, 2, 10, 2));

  EXPECT_TRUE(snap->QueryByAntecedent(9).empty());
}

TEST(RuleIndexSnapshotTest, QueryByConsequentSortsByConfidence) {
  const auto snap = RuleIndexSnapshot::Build(SampleRules(), 1);
  const auto to1 = snap->QueryByConsequent(1);
  ASSERT_EQ(to1.size(), 3u);
  EXPECT_EQ(to1[0], MakeRule(0, 1, 10, 0));
  EXPECT_EQ(to1[1], MakeRule(3, 1, 8, 0));
  EXPECT_EQ(to1[2], MakeRule(2, 1, 5, 1));
  EXPECT_TRUE(snap->QueryByConsequent(0).empty());
}

TEST(RuleIndexSnapshotTest, TopKGlobalOrder) {
  const auto snap = RuleIndexSnapshot::Build(SampleRules(), 1);
  const auto top2 = snap->TopK(2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0], MakeRule(0, 1, 10, 0));
  EXPECT_EQ(top2[1], MakeRule(3, 1, 8, 0));
  EXPECT_EQ(snap->TopK(0).size(), 6u);
  EXPECT_EQ(snap->TopK(100).size(), 6u);
}

TEST(RuleIndexSnapshotTest, BuildCanonicalizesDuplicates) {
  ImplicationRuleSet rules;
  rules.Add(MakeRule(1, 2, 5, 1));
  rules.Add(MakeRule(1, 2, 5, 1));
  const auto snap = RuleIndexSnapshot::Build(rules, 1);
  EXPECT_EQ(snap->size(), 1u);
}

TEST(RuleIndexSnapshotTest, EmptySnapshotServes) {
  const auto snap = RuleIndexSnapshot::Build(ImplicationRuleSet(), 0);
  EXPECT_TRUE(snap->empty());
  EXPECT_TRUE(snap->QueryByAntecedent(0).empty());
  EXPECT_TRUE(snap->QueryByConsequent(0).empty());
  EXPECT_TRUE(snap->TopK(5).empty());
}

TEST(RuleIndexTest, PublishBumpsGenerationAndPreservesReaders) {
  RuleIndex index;
  const auto before = index.snapshot();
  EXPECT_EQ(before->generation(), 0u);
  EXPECT_TRUE(before->empty());

  index.Publish(SampleRules());
  const auto after = index.snapshot();
  EXPECT_EQ(after->generation(), 1u);
  EXPECT_EQ(after->size(), 6u);
  // The old snapshot is untouched by the swap.
  EXPECT_TRUE(before->empty());

  index.Publish(ImplicationRuleSet());
  EXPECT_EQ(index.snapshot()->generation(), 2u);
  EXPECT_EQ(after->size(), 6u);
}

// Readers race Publish; TSan must stay quiet and every reader must
// observe a fully built snapshot.
TEST(RuleIndexConcurrencyTest, QueriesDuringSnapshotSwap) {
  RuleIndex index;
  index.Publish(SampleRules());

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&index, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = index.snapshot();
        const auto from0 = snap->QueryByAntecedent(0);
        const auto top = snap->TopK(2);
        if (!snap->empty()) {
          ASSERT_EQ(from0.size(), 3u);
          ASSERT_EQ(top.size(), 2u);
        }
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    index.Publish(i % 2 == 0 ? SampleRules() : ImplicationRuleSet());
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(index.snapshot()->generation(), 201u);
}

TEST(RuleIndexConcurrencyTest, ConcurrentPublishersKeepGenerationsDense) {
  // publish_mu_ serializes writers: two threads publishing concurrently
  // must never double-allocate a generation, so after N publishes the
  // generation is exactly N.
  RuleIndex index;
  constexpr int kPerThread = 100;
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&index, t] {
      for (int i = 0; i < kPerThread; ++i) {
        index.Publish(t == 0 ? SampleRules() : ImplicationRuleSet());
      }
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(index.snapshot()->generation(),
            static_cast<uint64_t>(2 * kPerThread));
}

}  // namespace
}  // namespace dmc
