#include "baselines/lsh.h"

#include <gtest/gtest.h>

#include "baselines/bruteforce.h"
#include "datagen/planted_gen.h"
#include "rules/verifier.h"

namespace dmc {
namespace {

TEST(LshTest, NoFalsePositives) {
  PlantedOptions p;
  p.seed = 91;
  const PlantedData data = GeneratePlanted(p);
  LshOptions o;
  LshStats stats;
  const auto pairs = LshSimilarities(data.matrix, o, 0.7, &stats);
  const RuleVerifier v(data.matrix);
  EXPECT_TRUE(v.VerifySimilarities(pairs, 0.7).ok());
}

TEST(LshTest, FindsPlantedPairs) {
  PlantedOptions p;
  p.seed = 92;
  const PlantedData data = GeneratePlanted(p);  // planted sim ~0.826
  LshOptions o;
  o.bands = 16;
  o.rows_per_band = 4;
  const auto pairs = LshSimilarities(data.matrix, o, 0.8);
  const auto found = pairs.Pairs();
  size_t hits = 0;
  for (const SimilarityPair& planted : data.similarities) {
    const auto key = std::make_pair(std::min(planted.a, planted.b),
                                    std::max(planted.a, planted.b));
    for (const auto& f : found) hits += f == key;
  }
  // P(miss) = (1 - 0.826^4)^16 ~ 2e-4 per pair.
  EXPECT_EQ(hits, data.similarities.size());
}

TEST(LshTest, SubsetOfBruteForce) {
  PlantedOptions p;
  p.seed = 93;
  p.noise_density = 0.05;
  const PlantedData data = GeneratePlanted(p);
  const auto truth = BruteForceSimilarities(data.matrix, 0.6).Pairs();
  const auto pairs = LshSimilarities(data.matrix, LshOptions{}, 0.6);
  for (const auto& f : pairs.Pairs()) {
    EXPECT_TRUE(std::find(truth.begin(), truth.end(), f) != truth.end());
  }
}

TEST(LshTest, DeterministicForSeed) {
  PlantedOptions p;
  p.seed = 94;
  const PlantedData data = GeneratePlanted(p);
  const auto a = LshSimilarities(data.matrix, LshOptions{}, 0.75);
  const auto b = LshSimilarities(data.matrix, LshOptions{}, 0.75);
  EXPECT_EQ(a.Pairs(), b.Pairs());
}

TEST(LshTest, StatsPopulated) {
  PlantedOptions p;
  p.seed = 95;
  const PlantedData data = GeneratePlanted(p);
  LshStats stats;
  const auto pairs = LshSimilarities(data.matrix, LshOptions{}, 0.8, &stats);
  EXPECT_GE(stats.candidate_pairs,
            pairs.size() + stats.false_positives_removed);
  EXPECT_GE(stats.total_seconds, 0.0);
}

TEST(LshTest, MinSupportExcludesColumns) {
  MatrixBuilder b(3);
  for (int i = 0; i < 30; ++i) b.AddRow({0, 1});
  b.AddRow({2});
  const BinaryMatrix m = b.Build();
  LshOptions o;
  o.min_support = 5;
  const auto pairs = LshSimilarities(m, o, 0.5);
  for (const auto& p : pairs) {
    EXPECT_NE(p.a, 2u);
    EXPECT_NE(p.b, 2u);
  }
  EXPECT_EQ(pairs.size(), 1u);
}

}  // namespace
}  // namespace dmc
