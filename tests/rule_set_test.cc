#include "rules/rule_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "util/random.h"

namespace dmc {
namespace {

TEST(ImplicationRuleSetTest, CanonicalizeSortsAndDedupes) {
  ImplicationRuleSet s;
  s.Add({2, 3, 10, 1});
  s.Add({1, 2, 10, 0});
  s.Add({2, 3, 10, 1});
  s.Canonicalize();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.rules()[0].lhs, 1u);
  EXPECT_EQ(s.rules()[1].lhs, 2u);
}

TEST(ImplicationRuleSetTest, PairsSortedUnique) {
  ImplicationRuleSet s;
  s.Add({5, 1, 10, 0});
  s.Add({0, 1, 10, 0});
  s.Add({5, 1, 10, 2});
  const auto pairs = s.Pairs();
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], std::make_pair(ColumnId{0}, ColumnId{1}));
  EXPECT_EQ(pairs[1], std::make_pair(ColumnId{5}, ColumnId{1}));
}

TEST(ImplicationRuleSetTest, FilterByConfidence) {
  ImplicationRuleSet s;
  s.Add({0, 1, 10, 0});  // 1.0
  s.Add({1, 2, 10, 2});  // 0.8
  s.Add({2, 3, 10, 5});  // 0.5
  const auto filtered = s.FilterByConfidence(0.8);
  EXPECT_EQ(filtered.size(), 2u);
}

TEST(ImplicationRuleSetTest, SortedByConfidence) {
  ImplicationRuleSet s;
  s.Add({1, 2, 10, 2});
  s.Add({0, 1, 10, 0});
  s.Add({2, 3, 10, 5});
  const auto sorted = s.SortedByConfidence();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted.rules()[0].misses, 0u);
  EXPECT_EQ(sorted.rules()[2].misses, 5u);

  // (2^32 - 3) / (2^32 - 2) < (2^32 - 2) / (2^32 - 1), but both round to
  // the same double (0.9999999997671694): the order must be the exact
  // one, not a tie broken by ids.
  ImplicationRuleSet close;
  close.Add({5, 6, 4294967294u, 1});
  close.Add({7, 8, 4294967295u, 1});
  ASSERT_EQ(close.rules()[0].confidence(), close.rules()[1].confidence());
  const auto exact = close.SortedByConfidence();
  ASSERT_EQ(exact.size(), 2u);
  EXPECT_EQ(exact.rules()[0].lhs, 7u);
  EXPECT_EQ(exact.rules()[1].lhs, 5u);
}

TEST(ImplicationRuleSetTest, PrintRespectsLimit) {
  ImplicationRuleSet s;
  for (ColumnId i = 0; i < 5; ++i) s.Add({i, ColumnId(i + 1), 10, 0});
  std::stringstream ss;
  s.Print(ss, 2);
  const std::string text = ss.str();
  EXPECT_NE(text.find("more"), std::string::npos);
}

TEST(SimilarityRuleSetTest, CanonicalizeOrientsSparserFirst) {
  SimilarityRuleSet s;
  // Stored denser-first; canonicalization must flip it.
  s.Add({7, 3, 20, 10, 9});
  s.Canonicalize();
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s.pairs()[0].a, 3u);
  EXPECT_EQ(s.pairs()[0].b, 7u);
  EXPECT_EQ(s.pairs()[0].ones_a, 10u);
  EXPECT_EQ(s.pairs()[0].ones_b, 20u);
}

TEST(SimilarityRuleSetTest, CanonicalizeDedupesAcrossOrientation) {
  SimilarityRuleSet s;
  s.Add({3, 7, 10, 20, 9});
  s.Add({7, 3, 20, 10, 9});
  s.Canonicalize();
  EXPECT_EQ(s.size(), 1u);
}

TEST(SimilarityRuleSetTest, PairsAreOrientationInsensitive) {
  SimilarityRuleSet s;
  s.Add({9, 2, 5, 5, 4});  // ones equal: canonical orientation is 2,9
  const auto pairs = s.Pairs();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], std::make_pair(ColumnId{2}, ColumnId{9}));
}

TEST(SimilarityRuleSetTest, FilterAndSort) {
  SimilarityRuleSet s;
  s.Add({0, 1, 10, 10, 10});  // 1.0
  s.Add({2, 3, 10, 10, 8});   // 8/12
  s.Add({4, 5, 10, 10, 5});   // 5/15
  EXPECT_EQ(s.FilterBySimilarity(0.6).size(), 2u);
  const auto sorted = s.SortedBySimilarity();
  EXPECT_EQ(sorted.pairs()[0].intersection, 10u);
  EXPECT_EQ(sorted.pairs()[2].intersection, 5u);
}

// MergeCanonical vs Canonicalize(union): the merge of the disjoint
// canonical shard outputs both executors (threads and shard processes)
// run.

TEST(ShardMergeTest, MergeCanonicalEqualsCanonicalizeOfUnion) {
  Rng rng(0x3A6D);
  for (int trial = 0; trial < 20; ++trial) {
    const int num_shards = 1 + static_cast<int>(rng.Uniform(5));
    const ColumnId cols = 24;
    std::vector<ImplicationRule> all;
    std::vector<ImplicationRuleSet> parts(num_shards);
    const size_t n = rng.Uniform(200);
    for (size_t i = 0; i < n; ++i) {
      ImplicationRule r;
      r.lhs = static_cast<ColumnId>(rng.Uniform(cols));
      do {
        r.rhs = static_cast<ColumnId>(rng.Uniform(cols));
      } while (r.rhs == r.lhs);
      // Counts are a pure function of (lhs, rhs): a real mine never
      // produces the same rule with different counts, and Canonicalize
      // dedups by key alone — ambiguous duplicates would be testing a
      // state the pipeline cannot reach.
      r.lhs_ones = 5 + (r.lhs * 37 + r.rhs * 11) % 90;
      r.misses = (r.lhs * 7 + r.rhs * 3) % r.lhs_ones;
      all.push_back(r);
      // Owner = the antecedent's shard, exactly like both executors.
      parts[r.lhs % num_shards].Add(r);
    }
    for (auto& p : parts) p.Canonicalize();
    ImplicationRuleSet expect(all);
    expect.Canonicalize();
    const ImplicationRuleSet got = MergeCanonical(std::move(parts));
    EXPECT_EQ(got.rules(), expect.rules()) << "trial " << trial;
  }
}

TEST(ShardMergeTest, MergeCanonicalSimEqualsCanonicalizeOfUnion) {
  Rng rng(0x51AB);
  for (int trial = 0; trial < 20; ++trial) {
    const int num_shards = 1 + static_cast<int>(rng.Uniform(4));
    std::vector<SimilarityPair> all;
    std::vector<SimilarityRuleSet> parts(num_shards);
    std::set<std::pair<ColumnId, ColumnId>> seen;
    const size_t n = rng.Uniform(150);
    for (size_t i = 0; i < n; ++i) {
      SimilarityPair p;
      p.a = static_cast<ColumnId>(rng.Uniform(16));
      do {
        p.b = static_cast<ColumnId>(rng.Uniform(16));
      } while (p.b == p.a);
      // Each unordered pair appears at most once, with counts that are
      // pure (symmetric) functions of the ids — shards must stay
      // pairwise disjoint after canonical reorientation, exactly as the
      // executors' owner partition guarantees.
      const ColumnId lo = std::min(p.a, p.b), hi = std::max(p.a, p.b);
      if (!seen.insert({lo, hi}).second) continue;
      p.ones_a = 5 + (p.a * 37) % 50;
      p.ones_b = 5 + (p.b * 37) % 50;
      p.intersection = 1 + ((lo + hi) * 13) % std::min(p.ones_a, p.ones_b);
      all.push_back(p);
      parts[lo % num_shards].Add(p);
    }
    for (auto& part : parts) part.Canonicalize();
    SimilarityRuleSet expect(all);
    expect.Canonicalize();
    const SimilarityRuleSet got = MergeCanonical(std::move(parts));
    EXPECT_EQ(got.pairs(), expect.pairs()) << "trial " << trial;
  }
}

TEST(ShardMergeTest, EmptyAndSingletonPartsAreFine) {
  EXPECT_TRUE(MergeCanonical(std::vector<ImplicationRuleSet>{}).empty());
  EXPECT_TRUE(MergeCanonical(std::vector<SimilarityRuleSet>{}).empty());

  ImplicationRuleSet one;
  one.Add({1, 2, 10, 1});
  one.Canonicalize();
  std::vector<ImplicationRuleSet> parts;
  parts.push_back(one);
  parts.emplace_back();  // empty shard: a worker whose mask matched no rules
  const ImplicationRuleSet got = MergeCanonical(std::move(parts));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got.rules()[0].lhs, 1u);
}

}  // namespace
}  // namespace dmc
