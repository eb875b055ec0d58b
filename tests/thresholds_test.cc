#include "core/thresholds.h"

#include <gtest/gtest.h>

namespace dmc {
namespace {

TEST(ThresholdsTest, MaxMissesForConfidenceExamples) {
  // Example 1.3: 100 ones at 85% confidence -> 15 misses allowed.
  EXPECT_EQ(MaxMissesForConfidence(100, 0.85), 15);
  // Example 3.1: 5 ones at 80% -> 1 miss.
  EXPECT_EQ(MaxMissesForConfidence(5, 0.8), 1);
  // 100% confidence -> no misses ever.
  EXPECT_EQ(MaxMissesForConfidence(100, 1.0), 0);
  EXPECT_EQ(MaxMissesForConfidence(0, 0.5), 0);
}

TEST(ThresholdsTest, MaxMissesBoundaryRounding) {
  // (1-0.9)*10 = 1 exactly; naive floating point gives 0.9999...
  EXPECT_EQ(MaxMissesForConfidence(10, 0.9), 1);
  EXPECT_EQ(MaxMissesForConfidence(9, 0.9), 0);
  EXPECT_EQ(MaxMissesForConfidence(20, 0.95), 1);
  EXPECT_EQ(MaxMissesForConfidence(19, 0.95), 0);
}

TEST(ThresholdsTest, MaxMissesConsistentWithConfidencePredicate) {
  // miss <= maxmis  <=>  (ones - miss)/ones >= minconf, checked over a
  // sweep of exact rational thresholds.
  for (uint32_t ones = 1; ones <= 60; ++ones) {
    for (int pct = 5; pct <= 100; pct += 5) {
      const double minconf = pct / 100.0;
      const int64_t mm = MaxMissesForConfidence(ones, minconf);
      for (uint32_t miss = 0; miss <= ones; ++miss) {
        // Exact rational comparison: (ones-miss)*100 >= pct*ones.
        const bool holds =
            uint64_t{ones - miss} * 100 >= uint64_t(pct) * ones;
        EXPECT_EQ(static_cast<int64_t>(miss) <= mm, holds)
            << "ones=" << ones << " pct=" << pct << " miss=" << miss;
      }
    }
  }
}

TEST(ThresholdsTest, SimilarityBudgetMatchesPredicate) {
  // mis <= budget  <=>  (a - mis)/(b + mis) >= s, exact rational check.
  for (uint32_t a = 1; a <= 30; ++a) {
    for (uint32_t b = a; b <= 30; ++b) {
      for (int pct = 10; pct <= 100; pct += 10) {
        const double s = pct / 100.0;
        const int64_t budget = MaxMissesForSimilarity(a, b, s);
        for (uint32_t mis = 0; mis <= a; ++mis) {
          const bool holds = uint64_t{a - mis} * 100 >=
                             uint64_t(pct) * (uint64_t{b} + mis);
          EXPECT_EQ(static_cast<int64_t>(mis) <= budget, holds)
              << "a=" << a << " b=" << b << " pct=" << pct
              << " mis=" << mis;
        }
      }
    }
  }
}

TEST(ThresholdsTest, ColumnDensityPruningIsNegativeBudget) {
  // a/b < s  <=>  budget < 0 (the §5.1 condition).
  EXPECT_LT(MaxMissesForSimilarity(3, 10, 0.5), 0);
  EXPECT_GE(MaxMissesForSimilarity(5, 10, 0.5), 0);
  EXPECT_GE(MaxMissesForSimilarity(10, 10, 0.5), 0);
}

TEST(ThresholdsTest, ColumnMaxMissesIsAtEqualOnes) {
  for (uint32_t a : {1u, 5u, 10u, 100u}) {
    for (double s : {0.5, 0.75, 0.9, 1.0}) {
      EXPECT_EQ(ColumnMaxMissesForSimilarity(a, s),
                MaxMissesForSimilarity(a, a, s));
      // No partner offers a looser budget than an equally-sparse one.
      for (uint32_t b = a; b <= a + 20; ++b) {
        EXPECT_LE(MaxMissesForSimilarity(a, b, s),
                  ColumnMaxMissesForSimilarity(a, s));
      }
    }
  }
}

TEST(ThresholdsTest, MinHitsComplementsBudgets) {
  EXPECT_EQ(MinHitsForSimilarity(4, 5, 0.75), 4);  // Example 5.1
}

TEST(ThresholdsTest, ConfidenceCutoffSoundness) {
  // minconf=0.9: ones=10 tolerates one miss (must survive); ones=9 does
  // not. This is the off-by-one the paper's step-3 prose gets wrong (see
  // DESIGN.md).
  EXPECT_TRUE(ColumnSurvivesConfidenceCutoff(10, 0.9));
  EXPECT_FALSE(ColumnSurvivesConfidenceCutoff(9, 0.9));
  EXPECT_FALSE(ColumnSurvivesConfidenceCutoff(1, 0.9));
}

TEST(ThresholdsTest, SimilarityCutoffSoundness) {
  // s=0.75: a column with 3 ones can reach sim 3/4 with a 4-ones superset
  // (the paper's own footnoted boundary case) -> must survive.
  EXPECT_TRUE(ColumnSurvivesSimilarityCutoff(3, 0.75));
  EXPECT_FALSE(ColumnSurvivesSimilarityCutoff(2, 0.75));
  EXPECT_FALSE(ColumnSurvivesSimilarityCutoff(0, 0.5));
  // s = 1.0: no column can be in a NON-identical pair of sim 1.
  EXPECT_FALSE(ColumnSurvivesSimilarityCutoff(100, 1.0));
}

TEST(ThresholdsTest, SimilarityCutoffAgainstExhaustiveCheck) {
  for (uint32_t a = 1; a <= 40; ++a) {
    for (int pct = 10; pct <= 95; pct += 5) {
      const double s = pct / 100.0;
      // Best non-identical similarity for a column with `a` ones is
      // a/(a+1) (subset of a column with a+1 ones).
      const bool reachable = uint64_t{a} * 100 >= uint64_t(pct) * (a + 1);
      EXPECT_EQ(ColumnSurvivesSimilarityCutoff(a, s), reachable)
          << "a=" << a << " pct=" << pct;
    }
  }
}

}  // namespace
}  // namespace dmc
