#include "rules/verifier.h"

#include <gtest/gtest.h>

namespace dmc {
namespace {

BinaryMatrix Sample() {
  // c0: rows 0,1,2 (ones=3); c1: rows 0,1,3 (3); c2: rows 0,4 (2).
  return BinaryMatrix::FromRows(3, {{0, 1, 2}, {0, 1}, {0}, {1}, {2}});
}

// c2 => c0 on Sample(): ones(c2) = 2, and row 4 is its one miss.
constexpr ImplicationRule kC2ImpliesC0{2, 0, 2, 1};

TEST(RuleVerifierTest, IntersectionAndMetrics) {
  const RuleVerifier v(Sample());
  EXPECT_EQ(v.Intersection(0, 1), 2u);
  EXPECT_EQ(v.Intersection(0, 2), 1u);
  EXPECT_DOUBLE_EQ(v.Confidence(0, 1), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(v.Confidence(2, 0), 0.5);
  EXPECT_DOUBLE_EQ(v.Similarity(0, 1), 2.0 / 4.0);
  EXPECT_DOUBLE_EQ(v.Similarity(1, 2), 1.0 / 4.0);
}

TEST(RuleVerifierTest, MakeSimilarityCanonical) {
  const RuleVerifier v(Sample());
  const SimilarityPair p = v.MakeSimilarity(0, 2);  // denser first input
  EXPECT_EQ(p.a, 2u);  // sparser column goes first
  EXPECT_EQ(p.b, 0u);
  EXPECT_EQ(p.intersection, 1u);
}

TEST(RuleVerifierTest, VerifyAcceptsCorrectRules) {
  const RuleVerifier v(Sample());
  ImplicationRuleSet rules;
  rules.Add(kC2ImpliesC0);  // conf 0.5
  EXPECT_TRUE(v.VerifyImplications(rules, 0.5).ok());
}

TEST(RuleVerifierTest, VerifyRejectsWrongCounts) {
  const RuleVerifier v(Sample());
  ImplicationRuleSet rules;
  ImplicationRule r = kC2ImpliesC0;
  r.misses = 0;  // corrupt
  rules.Add(r);
  EXPECT_FALSE(v.VerifyImplications(rules, 0.1).ok());
}

TEST(RuleVerifierTest, VerifyRejectsBelowThreshold) {
  const RuleVerifier v(Sample());
  ImplicationRuleSet rules;
  rules.Add(kC2ImpliesC0);  // conf 0.5
  EXPECT_FALSE(v.VerifyImplications(rules, 0.9).ok());
}

TEST(RuleVerifierTest, VerifyRejectsUnknownColumn) {
  const RuleVerifier v(Sample());
  ImplicationRuleSet rules;
  rules.Add({10, 0, 1, 0});
  EXPECT_FALSE(v.VerifyImplications(rules, 0.1).ok());
}

TEST(RuleVerifierTest, VerifySimilarities) {
  const RuleVerifier v(Sample());
  SimilarityRuleSet pairs;
  pairs.Add(v.MakeSimilarity(0, 1));  // sim 0.5
  EXPECT_TRUE(v.VerifySimilarities(pairs, 0.5).ok());
  EXPECT_FALSE(v.VerifySimilarities(pairs, 0.75).ok());

  SimilarityRuleSet corrupt;
  SimilarityPair p = v.MakeSimilarity(0, 1);
  p.intersection += 1;
  corrupt.Add(p);
  EXPECT_FALSE(v.VerifySimilarities(corrupt, 0.1).ok());
}

}  // namespace
}  // namespace dmc
