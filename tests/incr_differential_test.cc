// Differential battery for the incremental engine: for every tested
// (matrix, append-schedule, kernel, rule-type) tuple the incremental
// final rule set must be byte-identical to a fresh batch mine of the
// concatenated matrix, and RuleIndex queries must return exactly what a
// linear scan of that rule set returns. Schedules include empty batches,
// single-row batches, all-zero rows, and batches that widen the column
// space mid-stream.

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/kernels.h"
#include "incr/incr_miner.h"
#include "matrix/binary_matrix.h"
#include "rules/rule_index.h"
#include "util/random.h"

namespace dmc {
namespace {

BinaryMatrix RandomMatrix(uint64_t seed, uint32_t rows, uint32_t cols,
                          double density, double zero_row_prob = 0.0) {
  Rng rng(seed);
  MatrixBuilder b(cols);
  std::vector<ColumnId> row;
  for (uint32_t r = 0; r < rows; ++r) {
    row.clear();
    if (!rng.Bernoulli(zero_row_prob)) {
      for (ColumnId c = 0; c < cols; ++c) {
        if (rng.Bernoulli(density)) row.push_back(c);
      }
    }
    b.AddRow(row);
  }
  return b.Build();
}

// Rows [start, start+count) of `m`, as a matrix with `cols` columns.
BinaryMatrix Slice(const BinaryMatrix& m, uint32_t start, uint32_t count,
                   ColumnId cols) {
  MatrixBuilder b(cols);
  for (uint32_t r = start; r < start + count; ++r) {
    const auto row = m.Row(r);
    b.AddRow(std::vector<ColumnId>(row.begin(), row.end()));
  }
  return b.Build();
}

// Deterministic random split of [0, rows) into batch sizes; sprinkles in
// empty and single-row batches.
std::vector<uint32_t> RandomSchedule(uint64_t seed, uint32_t rows) {
  Rng rng(seed);
  std::vector<uint32_t> sizes;
  uint32_t pos = 0;
  while (pos < rows) {
    uint32_t s = static_cast<uint32_t>(rng.Uniform(9));  // 0..8, 0 = empty
    s = std::min(s, rows - pos);
    sizes.push_back(s);
    pos += s;
    if (sizes.size() > 4 * rows + 8) break;  // paranoia against 0-loops
  }
  if (pos < rows) sizes.push_back(rows - pos);
  return sizes;
}

std::string PrintImp(const ImplicationRuleSet& rules) {
  std::ostringstream os;
  rules.Print(os);
  return os.str();
}

std::string PrintSim(const SimilarityRuleSet& pairs) {
  std::ostringstream os;
  pairs.Print(os);
  return os.str();
}

const MergeKernel kAllKernels[] = {MergeKernel::kLegacy, MergeKernel::kScalar,
                                   MergeKernel::kSimd, MergeKernel::kAuto};

ImplicationRuleSet BatchImp(const BinaryMatrix& m, double conf,
                            MergeKernel kernel) {
  ImplicationMiningOptions o;
  o.min_confidence = conf;
  o.policy.kernel = kernel;
  auto rules = MineImplications(m, o);
  EXPECT_TRUE(rules.ok()) << rules.status();
  ImplicationRuleSet out = rules.ok() ? std::move(*rules) : ImplicationRuleSet();
  out.Canonicalize();
  return out;
}

SimilarityRuleSet BatchSim(const BinaryMatrix& m, double sim,
                           MergeKernel kernel) {
  SimilarityMiningOptions o;
  o.min_similarity = sim;
  o.policy.kernel = kernel;
  auto pairs = MineSimilarities(m, o);
  EXPECT_TRUE(pairs.ok()) << pairs.status();
  SimilarityRuleSet out = pairs.ok() ? std::move(*pairs) : SimilarityRuleSet();
  out.Canonicalize();
  return out;
}

struct DiffCase {
  uint32_t rows;
  uint32_t cols;
  double density;
  double threshold;
  uint64_t seed;
  double zero_row_prob;
};

class IncrDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(IncrDifferentialTest, ImplicationsMatchBatchAcrossKernels) {
  const DiffCase& c = GetParam();
  const BinaryMatrix full =
      RandomMatrix(c.seed, c.rows, c.cols, c.density, c.zero_row_prob);
  const std::vector<uint32_t> schedule = RandomSchedule(c.seed * 31 + 7, c.rows);
  for (const MergeKernel kernel : kAllKernels) {
    const ImplicationRuleSet expected = BatchImp(full, c.threshold, kernel);

    ImplicationMiningOptions o;
    o.min_confidence = c.threshold;
    o.policy.kernel = kernel;
    IncrementalImplicationMiner miner(o);
    uint32_t pos = 0;
    for (const uint32_t s : schedule) {
      ASSERT_TRUE(miner.AppendBatch(Slice(full, pos, s, c.cols)).ok());
      pos += s;
    }
    ASSERT_EQ(pos, c.rows);
    EXPECT_EQ(miner.num_rows(), c.rows);
    EXPECT_EQ(miner.rules().rules(), expected.rules())
        << "kernel=" << KernelName(kernel);
    EXPECT_EQ(PrintImp(miner.rules()), PrintImp(expected));
  }
}

TEST_P(IncrDifferentialTest, SimilaritiesMatchBatchAcrossKernels) {
  const DiffCase& c = GetParam();
  const BinaryMatrix full =
      RandomMatrix(c.seed, c.rows, c.cols, c.density, c.zero_row_prob);
  const std::vector<uint32_t> schedule = RandomSchedule(c.seed * 17 + 3, c.rows);
  for (const MergeKernel kernel : kAllKernels) {
    const SimilarityRuleSet expected = BatchSim(full, c.threshold, kernel);

    SimilarityMiningOptions o;
    o.min_similarity = c.threshold;
    o.policy.kernel = kernel;
    IncrementalSimilarityMiner miner(o);
    uint32_t pos = 0;
    for (const uint32_t s : schedule) {
      ASSERT_TRUE(miner.AppendBatch(Slice(full, pos, s, c.cols)).ok());
      pos += s;
    }
    ASSERT_EQ(pos, c.rows);
    EXPECT_EQ(miner.rules().pairs(), expected.pairs())
        << "kernel=" << KernelName(kernel);
    EXPECT_EQ(PrintSim(miner.rules()), PrintSim(expected));
  }
}

// Seeding from a batch mine and appending the remainder must agree with
// mining everything at once.
TEST_P(IncrDifferentialTest, FromBatchMineThenAppendMatches) {
  const DiffCase& c = GetParam();
  if (c.rows < 2) GTEST_SKIP();
  const BinaryMatrix full =
      RandomMatrix(c.seed, c.rows, c.cols, c.density, c.zero_row_prob);
  const uint32_t head = c.rows / 2;
  const BinaryMatrix initial = Slice(full, 0, head, c.cols);

  {
    ImplicationMiningOptions o;
    o.min_confidence = c.threshold;
    auto miner = IncrementalImplicationMiner::FromBatchMine(initial, o);
    ASSERT_TRUE(miner.ok()) << miner.status();
    ASSERT_TRUE(
        miner->AppendBatch(Slice(full, head, c.rows - head, c.cols)).ok());
    EXPECT_EQ(miner->rules().rules(),
              BatchImp(full, c.threshold, MergeKernel::kAuto).rules());
  }
  {
    SimilarityMiningOptions o;
    o.min_similarity = c.threshold;
    auto miner = IncrementalSimilarityMiner::FromBatchMine(initial, o);
    ASSERT_TRUE(miner.ok()) << miner.status();
    ASSERT_TRUE(
        miner->AppendBatch(Slice(full, head, c.rows - head, c.cols)).ok());
    EXPECT_EQ(miner->rules().pairs(),
              BatchSim(full, c.threshold, MergeKernel::kAuto).pairs());
  }
}

// RuleIndex queries over the final incremental rule set must equal a
// linear scan of that rule set, for every antecedent and consequent that
// occurs plus one that does not.
TEST_P(IncrDifferentialTest, RuleIndexQueriesMatchLinearScan) {
  const DiffCase& c = GetParam();
  const BinaryMatrix full =
      RandomMatrix(c.seed, c.rows, c.cols, c.density, c.zero_row_prob);
  const ImplicationRuleSet rules =
      BatchImp(full, c.threshold, MergeKernel::kAuto);
  const auto snapshot = RuleIndexSnapshot::Build(rules, 1);
  ASSERT_EQ(snapshot->size(), rules.size());

  const auto scan = [&rules](auto pred) {
    std::vector<ImplicationRule> out;
    for (const ImplicationRule& r : rules) {
      if (pred(r)) out.push_back(r);
    }
    std::sort(out.begin(), out.end(), HigherConfidence);
    return out;
  };

  for (ColumnId col = 0; col <= c.cols; ++col) {  // c.cols: absent column
    EXPECT_EQ(snapshot->QueryByAntecedent(col),
              scan([col](const ImplicationRule& r) { return r.lhs == col; }));
    EXPECT_EQ(snapshot->QueryByConsequent(col),
              scan([col](const ImplicationRule& r) { return r.rhs == col; }));
  }
  const std::vector<ImplicationRule> all =
      scan([](const ImplicationRule&) { return true; });
  EXPECT_EQ(snapshot->TopK(0), all);
  for (const size_t k : {size_t{1}, size_t{3}, all.size(), all.size() + 5}) {
    std::vector<ImplicationRule> expect(
        all.begin(), all.begin() + std::min(k, all.size()));
    EXPECT_EQ(snapshot->TopK(k), expect);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IncrDifferentialTest,
    ::testing::Values(
        DiffCase{0, 8, 0.3, 0.9, 11, 0.0},     // zero rows
        DiffCase{1, 8, 0.5, 0.9, 12, 0.0},     // single row
        DiffCase{40, 10, 0.25, 0.9, 13, 0.0},
        DiffCase{60, 12, 0.35, 0.8, 14, 0.1},  // with all-zero rows
        DiffCase{80, 16, 0.15, 0.95, 15, 0.0},
        DiffCase{100, 20, 0.3, 0.7, 16, 0.05},
        DiffCase{50, 6, 0.6, 0.5, 17, 0.0},    // dense, low threshold
        DiffCase{30, 24, 0.1, 1.0, 18, 0.2},   // exact-implication threshold
        DiffCase{64, 15, 0.4, 0.85, 19, 0.0}));

// A batch wider than anything seen before must grow the column space;
// the result still matches a batch mine over the full-width concat.
TEST(IncrWidthGrowthTest, WideningAppendMatchesBatch) {
  const ColumnId narrow = 6;
  const ColumnId wide = 14;
  const BinaryMatrix head = RandomMatrix(21, 30, narrow, 0.4);
  const BinaryMatrix tail = RandomMatrix(22, 25, wide, 0.3);

  MatrixBuilder b(wide);
  for (RowId r = 0; r < head.num_rows(); ++r) {
    const auto row = head.Row(r);
    b.AddRow(std::vector<ColumnId>(row.begin(), row.end()));
  }
  for (RowId r = 0; r < tail.num_rows(); ++r) {
    const auto row = tail.Row(r);
    b.AddRow(std::vector<ColumnId>(row.begin(), row.end()));
  }
  const BinaryMatrix full = b.Build();

  ImplicationMiningOptions io;
  io.min_confidence = 0.8;
  IncrementalImplicationMiner imp(io);
  ASSERT_TRUE(imp.AppendBatch(head).ok());
  ASSERT_TRUE(imp.AppendBatch(tail).ok());
  EXPECT_EQ(imp.num_columns(), wide);
  EXPECT_EQ(imp.rules().rules(), BatchImp(full, 0.8, MergeKernel::kAuto).rules());

  SimilarityMiningOptions so;
  so.min_similarity = 0.6;
  IncrementalSimilarityMiner sim(so);
  ASSERT_TRUE(sim.AppendBatch(head).ok());
  ASSERT_TRUE(sim.AppendBatch(tail).ok());
  EXPECT_EQ(sim.rules().pairs(), BatchSim(full, 0.6, MergeKernel::kAuto).pairs());
}

// Widening, evicting the pre-widening prefix, then appending more must
// still match a batch mine of the surviving rows at the widened width —
// the id renumbering must splice cleanly into the append path.
TEST(IncrWidthGrowthTest, AppendAfterWideningThenEvictMatchesBatch) {
  const ColumnId narrow = 6;
  const ColumnId wide = 14;
  const BinaryMatrix head = RandomMatrix(41, 30, narrow, 0.4);
  const BinaryMatrix mid = RandomMatrix(42, 25, wide, 0.3);
  const BinaryMatrix tail = RandomMatrix(43, 20, wide, 0.35);
  const uint32_t evicted = 18;  // most of the narrow head

  MatrixBuilder b(wide);
  for (RowId r = evicted; r < head.num_rows(); ++r) {
    const auto row = head.Row(r);
    b.AddRow(std::vector<ColumnId>(row.begin(), row.end()));
  }
  for (const BinaryMatrix* m : {&mid, &tail}) {
    for (RowId r = 0; r < m->num_rows(); ++r) {
      const auto row = m->Row(r);
      b.AddRow(std::vector<ColumnId>(row.begin(), row.end()));
    }
  }
  const BinaryMatrix survivors = b.Build();

  ImplicationMiningOptions io;
  io.min_confidence = 0.8;
  IncrementalImplicationMiner imp(io);
  ASSERT_TRUE(imp.AppendBatch(head).ok());
  ASSERT_TRUE(imp.AppendBatch(mid).ok());
  ASSERT_TRUE(imp.EvictBatch(evicted).ok());
  ASSERT_TRUE(imp.AppendBatch(tail).ok());
  EXPECT_EQ(imp.num_columns(), wide);
  EXPECT_EQ(imp.rules().rules(),
            BatchImp(survivors, 0.8, MergeKernel::kAuto).rules());

  SimilarityMiningOptions so;
  so.min_similarity = 0.6;
  IncrementalSimilarityMiner sim(so);
  ASSERT_TRUE(sim.AppendBatch(head).ok());
  ASSERT_TRUE(sim.AppendBatch(mid).ok());
  ASSERT_TRUE(sim.EvictBatch(evicted).ok());
  ASSERT_TRUE(sim.AppendBatch(tail).ok());
  EXPECT_EQ(sim.rules().pairs(),
            BatchSim(survivors, 0.6, MergeKernel::kAuto).pairs());
}

// Stats plumbing: kills and revivals are reported and accumulate.
TEST(IncrStatsTest, KillAndReviveAreCounted) {
  // Columns 0 and 1 always co-occur in the head -> rule at conf 1.0.
  MatrixBuilder head(2);
  for (int i = 0; i < 10; ++i) head.AddRow({0, 1});
  ImplicationMiningOptions o;
  o.min_confidence = 0.9;
  IncrementalImplicationMiner miner(o);
  ASSERT_TRUE(miner.AppendBatch(head.Build()).ok());
  ASSERT_EQ(miner.rules().size(), 1u);  // 0=>1 (sparser-first, tie by id)

  // Five lone-0 and five lone-1 rows: misses 5 of 15, budget 1 -> dead.
  MatrixBuilder kill(2);
  for (int i = 0; i < 5; ++i) kill.AddRow({0});
  for (int i = 0; i < 5; ++i) kill.AddRow({1});
  IncrAppendStats stats;
  ASSERT_TRUE(miner.AppendBatch(kill.Build(), &stats).ok());
  EXPECT_EQ(stats.candidates_killed, 1u);
  EXPECT_TRUE(miner.rules().empty());

  // Enough fresh co-occurrences bring 0=>1 back above 0.9.
  MatrixBuilder revive(2);
  for (int i = 0; i < 90; ++i) revive.AddRow({0, 1});
  ASSERT_TRUE(miner.AppendBatch(revive.Build(), &stats).ok());
  EXPECT_EQ(stats.candidates_revived, 1u);
  EXPECT_FALSE(miner.rules().empty());
  EXPECT_EQ(miner.cumulative().batches, 3u);
  EXPECT_EQ(miner.cumulative().rows_total, 110u);
  EXPECT_EQ(miner.cumulative().candidates_killed, 1u);
}

}  // namespace
}  // namespace dmc
