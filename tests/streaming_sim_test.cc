#include "core/streaming_pass.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "baselines/bruteforce.h"
#include "core/dmc_sim.h"
#include "core/external_miner.h"
#include "core/kernels.h"
#include "datagen/dictionary_gen.h"
#include "datagen/quest_gen.h"
#include "matrix/matrix_io.h"
#include "matrix/row_order.h"
#include "util/random.h"

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
    auto streamed = StreamPhases<SimilarityKind>(
        m.num_columns(), m.column_ones(), m.num_rows(), o,
        MatrixReplay(m, order));
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
  auto streamed = StreamPhases<SimilarityKind>(
      m.num_columns(), m.column_ones(), m.num_rows(), o,
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
      auto streamed = StreamPhases<SimilarityKind>(
          m.num_columns(), m.column_ones(), m.num_rows(), o,
          MatrixReplay(m, order));
      ASSERT_TRUE(streamed.ok());
      EXPECT_EQ(streamed->Pairs(), truth)
          << density << " " << maxhits;
    }
  }
}

// Why the vector add-merge may decide a similarity joiner once (DESIGN
// §5.4): once AcceptNew rejects ck for cj's list, it rejects it at every
// later co-occurrence, where cnt(cj) and cnt(ck) can only have grown; and
// a candidate that died on a hit or on a miss fails AcceptNew from the
// next row on, so it can never rejoin.
TEST(SimilarityKindTest, AcceptNewRejectionIsFinal) {
  Rng rng(2026);
  size_t walks_from[3] = {0, 0, 0};  // rejection, hit death, miss death
  for (int trial = 0; trial < 30000; ++trial) {
    const std::vector<uint32_t> ones = {
        static_cast<uint32_t>(rng.UniformInt(1, 60)),
        static_cast<uint32_t>(rng.UniformInt(1, 60))};
    const double minsim = static_cast<double>(rng.UniformInt(1, 100)) / 100;
    const SimilarityKind kind(ones, minsim, DmcPolicy{},
                              /*vector_sweep=*/false);
    // Pre-row counts of a row holding both columns.
    std::vector<uint32_t> cnt = {
        static_cast<uint32_t>(rng.UniformInt(0, ones[0] - 1)),
        static_cast<uint32_t>(rng.UniformInt(0, ones[1] - 1))};
    const auto accepts = [&] {
      return kind.ForList(0, cnt[0], cnt.data()).AcceptNew(1);
    };
    const int start = trial % 3;
    bool rejected = false;
    if (start == 0) {
      rejected = !accepts();
    } else {
      // A listed candidate with `miss` misses; its hits so far are at
      // most cnt(ck).
      const uint32_t miss = static_cast<uint32_t>(rng.UniformInt(
          cnt[0] > cnt[1] ? cnt[0] - cnt[1] : 0, cnt[0]));
      const auto pred = kind.ForList(0, cnt[0], cnt.data());
      rejected = start == 1 ? !pred.KeepOnHit(1, miss)
                            : !pred.KeepOnMiss(1, miss + 1);
      // The death row counts for cj, and for ck only on a hit.
      ++cnt[0];
      if (start == 1) ++cnt[1];
    }
    if (rejected) ++walks_from[start];
    while (cnt[0] < ones[0] && cnt[1] < ones[1]) {
      if (rejected) {
        ASSERT_FALSE(accepts())
            << "ones=" << ones[0] << "," << ones[1] << " s=" << minsim
            << " cnt=" << cnt[0] << "," << cnt[1] << " start=" << start;
      } else {
        rejected = !accepts();
      }
      const uint32_t dj = static_cast<uint32_t>(rng.UniformInt(0, 2));
      const uint32_t dk = static_cast<uint32_t>(rng.UniformInt(0, 2));
      cnt[0] += dj + (dj + dk == 0 ? 1 : 0);
      cnt[1] += dk;
    }
  }
  for (const size_t walks : walks_from) EXPECT_GT(walks, 1000u);
}

// A 1-count in [1, 2^30 - 1] of random magnitude.
uint32_t RandomOnes(Rng& rng) {
  const int64_t bits = rng.UniformInt(1, 30);
  return static_cast<uint32_t>(rng.UniformInt(1, (int64_t{1} << bits) - 1));
}

// The vector sweep's integer budget (DESIGN §5.4): B = SlackBudget(cj, ck)
// is the largest miss count the multiply-form test passes, so for every
// reachable argument x >= 0 (the §5.2 argument is at least the miss
// count), x <= B iff WithinPairBudget(cj, ck, x). Covers 1-counts up to
// 2^30 - 1 in either order, thresholds on the two-decimal grid and
// random ones in (0, 1], and pairs where ones(cj) - s*ones(ck) < 0, whose
// budget clamps to -1.
TEST(SimilarityKindTest, SlackBudgetMatchesTheMultiplyForm) {
  Rng rng(5202);
  constexpr size_t kPairs = 2000;
  size_t clamped = 0, positive = 0;
  for (int t = 0; t < 200; ++t) {
    const double s = t % 2 == 0
                         ? static_cast<double>(rng.UniformInt(1, 100)) / 100
                         : 1.0 - rng.UniformDouble();
    std::vector<uint32_t> ones(2 * kPairs);
    for (size_t i = 0; i < kPairs; ++i) {
      const uint32_t a = RandomOnes(rng);
      // Half the partners sit near a/s, where a - s*b crosses 0.
      const int64_t near = static_cast<int64_t>(std::min(a / s, 0x1p31)) +
                           rng.UniformInt(-2, 2);
      const uint32_t b =
          rng.Bernoulli(0.5)
              ? static_cast<uint32_t>(
                    std::clamp<int64_t>(near, 1, (int64_t{1} << 30) - 1))
              : RandomOnes(rng);
      ones[2 * i] = a;
      ones[2 * i + 1] = b;
    }
    const SimilarityKind kind(ones, s, DmcPolicy{}, /*vector_sweep=*/true);
    for (ColumnId c = 0; c < 2 * kPairs; ++c) {
      const ColumnId cj = c, ck = c ^ 1;
      const int32_t b = kind.SlackBudget(cj, ck);
      ASSERT_GE(b, -1);
      clamped += b == -1;
      positive += b > 0;
      for (int64_t x = std::max<int64_t>(0, int64_t{b} - 2);
           x <= int64_t{b} + 2; ++x) {
        ASSERT_EQ(x <= b, kind.WithinPairBudget(cj, ck, x))
            << "ones=" << ones[cj] << "," << ones[ck] << " s=" << s
            << " B=" << b << " x=" << x;
      }
    }
  }
  EXPECT_GT(clamped, 10000u);
  EXPECT_GT(positive, 10000u);
}

// The multiply form (the merge predicates and the vector sweep's budget)
// and MaxMissesForSimilarity, the division form (the flush guard, the
// bitmap tail and BruteForce), decide every miss count alike. Both are
// monotone in the miss count, so it is enough to check the multiply form
// on either side of the division form's budget.
TEST(SimilarityKindTest, MultiplyFormMatchesDivisionForm) {
  constexpr uint32_t kMaxOnes = 400;
  std::vector<uint32_t> ones(kMaxOnes);
  for (uint32_t a = 1; a <= kMaxOnes; ++a) ones[a - 1] = a;
  std::vector<double> thresholds;
  for (int pct = 1; pct <= 100; ++pct) thresholds.push_back(pct / 100.0);
  for (const double s : {1.0 / 3, 2.0 / 3, 0.1 + 0.2, 0.666667, 0.6666667,
                         0.5000001, 0.999999, 0.123456789}) {
    thresholds.push_back(s);
  }
  for (const double s : thresholds) {
    const SimilarityKind kind(ones, s, DmcPolicy{}, /*vector_sweep=*/false);
    for (uint32_t a = 1; a <= kMaxOnes; ++a) {
      for (uint32_t b = a; b <= kMaxOnes; ++b) {
        const int64_t m = MaxMissesForSimilarity(a, b, s);
        const int64_t lo = std::max<int64_t>(0, m);
        for (int64_t x = lo; x <= std::max<int64_t>(0, m + 1); ++x) {
          ASSERT_EQ(x <= m, kind.WithinPairBudget(a - 1, b - 1, x))
              << "a=" << a << " b=" << b << " s=" << s << " mis=" << x;
        }
      }
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
  auto streamed = StreamPhases<SimilarityKind>(
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
