// Differential battery for sliding-window mining: for every tested
// (workload, append/evict-schedule, kernel, rule-type) tuple the
// windowed state after EVERY operation must be byte-identical to a
// fresh mine of the current window contents — rules AND memory
// accounting (a fresh incremental miner fed the window in one batch
// must report the same MemoryBytes, proving the eviction path leaves no
// layout residue). Schedules include empty evictions, total evictions,
// overlapping evict-then-append interleavings, windows shrinking to
// zero and regrowing, and batches that widen the column space before an
// eviction. The sweep runs >= 200 random schedules across all merge
// kernels for both rule types.

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/kernels.h"
#include "incr/incr_miner.h"
#include "matrix/binary_matrix.h"
#include "observe/metrics.h"
#include "util/random.h"

namespace dmc {
namespace {

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

// The records of either rule kind, for exact comparison.
const std::vector<ImplicationRule>& Items(const ImplicationRuleSet& rules) {
  return rules.rules();
}
const std::vector<SimilarityPair>& Items(const SimilarityRuleSet& pairs) {
  return pairs.pairs();
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
  ImplicationRuleSet out =
      rules.ok() ? std::move(*rules) : ImplicationRuleSet();
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
  SimilarityRuleSet out =
      pairs.ok() ? std::move(*pairs) : SimilarityRuleSet();
  out.Canonicalize();
  return out;
}

// One step of an append/evict schedule.
struct WindowOp {
  enum Kind { kAppend, kEvict } kind;
  // kAppend: the rows to add. kEvict: `count` oldest rows to drop.
  std::vector<std::vector<ColumnId>> rows;
  uint32_t count = 0;
};

// A deterministic random interleaving of appends and evictions.
// Evictions are drawn over [0, live] inclusive, so empty and total
// evictions (window shrinking to zero) occur regularly, and appends
// after a total eviction regrow the window.
std::vector<WindowOp> RandomSchedule(uint64_t seed, uint32_t num_ops,
                                     ColumnId cols, double density,
                                     double zero_row_prob) {
  Rng rng(seed);
  std::vector<WindowOp> ops;
  uint32_t live = 0;
  for (uint32_t i = 0; i < num_ops; ++i) {
    // Bias toward appends so the window actually holds rows to evict.
    const bool evict = live > 0 && rng.Bernoulli(0.4);
    WindowOp op;
    if (evict) {
      op.kind = WindowOp::kEvict;
      op.count = static_cast<uint32_t>(rng.Uniform(live + 1));  // 0..live
      live -= op.count;
    } else {
      op.kind = WindowOp::kAppend;
      const uint32_t n = static_cast<uint32_t>(rng.Uniform(9));  // 0..8
      for (uint32_t r = 0; r < n; ++r) {
        std::vector<ColumnId> row;
        if (!rng.Bernoulli(zero_row_prob)) {
          for (ColumnId c = 0; c < cols; ++c) {
            if (rng.Bernoulli(density)) row.push_back(c);
          }
        }
        op.rows.push_back(std::move(row));
      }
      live += n;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

// The oracle window: surviving rows in arrival order.
class OracleWindow {
 public:
  void Append(const std::vector<std::vector<ColumnId>>& rows) {
    rows_.insert(rows_.end(), rows.begin(), rows.end());
  }
  void Evict(uint32_t k) { rows_.erase(rows_.begin(), rows_.begin() + k); }
  size_t size() const { return rows_.size(); }

  BinaryMatrix Matrix(ColumnId width) const {
    return BinaryMatrix::FromRows(width, rows_);
  }

 private:
  std::vector<std::vector<ColumnId>> rows_;
};

BinaryMatrix RowsMatrix(const std::vector<std::vector<ColumnId>>& rows,
                        ColumnId width) {
  return BinaryMatrix::FromRows(width, rows);
}

struct WindowCase {
  uint32_t num_ops;
  ColumnId cols;
  double density;
  double threshold;
  uint64_t seed;
  double zero_row_prob;
  uint32_t schedules;  // random schedules derived from `seed`
};

class WindowDifferentialTest : public ::testing::TestWithParam<WindowCase> {};

// After every operation, rules and MemoryBytes must equal a fresh mine
// of the window contents at the miner's (sticky) width.
TEST_P(WindowDifferentialTest, ImplicationsMatchFreshWindowMine) {
  const WindowCase& c = GetParam();
  for (uint32_t s = 0; s < c.schedules; ++s) {
    const std::vector<WindowOp> ops = RandomSchedule(
        c.seed * 1009 + s, c.num_ops, c.cols, c.density, c.zero_row_prob);
    for (const MergeKernel kernel : kAllKernels) {
      ImplicationMiningOptions o;
      o.min_confidence = c.threshold;
      o.policy.kernel = kernel;
      IncrementalImplicationMiner miner(o);
      OracleWindow window;
      for (size_t i = 0; i < ops.size(); ++i) {
        const WindowOp& op = ops[i];
        if (op.kind == WindowOp::kAppend) {
          ASSERT_TRUE(
              miner.AppendBatch(RowsMatrix(op.rows, c.cols)).ok());
          window.Append(op.rows);
        } else {
          ASSERT_TRUE(miner.EvictBatch(op.count).ok());
          window.Evict(op.count);
        }
        ASSERT_EQ(miner.num_rows(), window.size());
        const BinaryMatrix contents = window.Matrix(miner.num_columns());
        EXPECT_EQ(miner.rules().rules(),
                  BatchImp(contents, c.threshold, kernel).rules())
            << "schedule=" << s << " op=" << i
            << " kernel=" << KernelName(kernel);
        IncrementalImplicationMiner fresh(o);
        ASSERT_TRUE(fresh.AppendBatch(contents).ok());
        EXPECT_EQ(miner.MemoryBytes(), fresh.MemoryBytes())
            << "schedule=" << s << " op=" << i
            << " kernel=" << KernelName(kernel);
      }
    }
  }
}

TEST_P(WindowDifferentialTest, SimilaritiesMatchFreshWindowMine) {
  const WindowCase& c = GetParam();
  for (uint32_t s = 0; s < c.schedules; ++s) {
    const std::vector<WindowOp> ops = RandomSchedule(
        c.seed * 2003 + s, c.num_ops, c.cols, c.density, c.zero_row_prob);
    for (const MergeKernel kernel : kAllKernels) {
      SimilarityMiningOptions o;
      o.min_similarity = c.threshold;
      o.policy.kernel = kernel;
      IncrementalSimilarityMiner miner(o);
      OracleWindow window;
      for (size_t i = 0; i < ops.size(); ++i) {
        const WindowOp& op = ops[i];
        if (op.kind == WindowOp::kAppend) {
          ASSERT_TRUE(
              miner.AppendBatch(RowsMatrix(op.rows, c.cols)).ok());
          window.Append(op.rows);
        } else {
          ASSERT_TRUE(miner.EvictBatch(op.count).ok());
          window.Evict(op.count);
        }
        ASSERT_EQ(miner.num_rows(), window.size());
        const BinaryMatrix contents = window.Matrix(miner.num_columns());
        EXPECT_EQ(miner.rules().pairs(),
                  BatchSim(contents, c.threshold, kernel).pairs())
            << "schedule=" << s << " op=" << i
            << " kernel=" << KernelName(kernel);
        IncrementalSimilarityMiner fresh(o);
        ASSERT_TRUE(fresh.AppendBatch(contents).ok());
        EXPECT_EQ(miner.MemoryBytes(), fresh.MemoryBytes())
            << "schedule=" << s << " op=" << i
            << " kernel=" << KernelName(kernel);
      }
    }
  }
}

// Seed stability: replaying the same schedule must reproduce the exact
// same printed rule set, byte for byte.
TEST_P(WindowDifferentialTest, SchedulesAreSeedStable) {
  const WindowCase& c = GetParam();
  const std::vector<WindowOp> ops = RandomSchedule(
      c.seed * 4001, c.num_ops, c.cols, c.density, c.zero_row_prob);
  std::string first_imp;
  std::string first_sim;
  for (int pass = 0; pass < 2; ++pass) {
    ImplicationMiningOptions io;
    io.min_confidence = c.threshold;
    IncrementalImplicationMiner imp(io);
    SimilarityMiningOptions so;
    so.min_similarity = c.threshold;
    IncrementalSimilarityMiner sim(so);
    for (const WindowOp& op : ops) {
      if (op.kind == WindowOp::kAppend) {
        ASSERT_TRUE(imp.AppendBatch(RowsMatrix(op.rows, c.cols)).ok());
        ASSERT_TRUE(sim.AppendBatch(RowsMatrix(op.rows, c.cols)).ok());
      } else {
        ASSERT_TRUE(imp.EvictBatch(op.count).ok());
        ASSERT_TRUE(sim.EvictBatch(op.count).ok());
      }
    }
    if (pass == 0) {
      first_imp = PrintImp(imp.rules());
      first_sim = PrintSim(sim.rules());
    } else {
      EXPECT_EQ(PrintImp(imp.rules()), first_imp);
      EXPECT_EQ(PrintSim(sim.rules()), first_sim);
    }
  }
}

// 25 workloads x `schedules` random schedules each = 200 schedules,
// every one swept across all four kernels for both rule types.
INSTANTIATE_TEST_SUITE_P(
    Sweep, WindowDifferentialTest,
    ::testing::Values(
        WindowCase{12, 8, 0.3, 0.9, 101, 0.0, 8},
        WindowCase{14, 10, 0.25, 0.9, 102, 0.0, 8},
        WindowCase{10, 12, 0.35, 0.8, 103, 0.1, 8},
        WindowCase{16, 6, 0.5, 0.7, 104, 0.0, 8},
        WindowCase{12, 16, 0.15, 0.95, 105, 0.0, 8},
        WindowCase{18, 10, 0.3, 0.7, 106, 0.05, 8},
        WindowCase{10, 6, 0.6, 0.5, 107, 0.0, 8},
        WindowCase{14, 20, 0.1, 1.0, 108, 0.2, 8},   // exact threshold
        WindowCase{12, 15, 0.4, 0.85, 109, 0.0, 8},
        WindowCase{20, 8, 0.35, 0.75, 110, 0.0, 8},
        WindowCase{8, 10, 0.45, 0.6, 111, 0.1, 8},
        WindowCase{16, 12, 0.2, 0.9, 112, 0.0, 8},
        WindowCase{12, 9, 0.55, 0.65, 113, 0.0, 8},
        WindowCase{14, 14, 0.25, 0.8, 114, 0.15, 8},
        WindowCase{10, 18, 0.12, 0.95, 115, 0.0, 8},
        WindowCase{18, 7, 0.4, 0.7, 116, 0.0, 8},
        WindowCase{12, 11, 0.3, 0.85, 117, 0.05, 8},
        WindowCase{16, 13, 0.18, 0.9, 118, 0.0, 8},
        WindowCase{10, 8, 0.5, 0.55, 119, 0.0, 8},
        WindowCase{14, 10, 0.35, 0.8, 120, 0.3, 8},  // many zero rows
        WindowCase{12, 12, 0.28, 0.75, 121, 0.0, 8},
        WindowCase{20, 6, 0.45, 0.6, 122, 0.0, 8},
        WindowCase{8, 16, 0.22, 0.9, 123, 0.1, 8},
        WindowCase{16, 9, 0.38, 0.7, 124, 0.0, 8},
        WindowCase{12, 10, 0.3, 1.0, 125, 0.0, 8}));

// Appending a wider batch then evicting the pre-widening prefix must
// agree with a fresh mine at the widened width — the id renumbering and
// the sticky column count interact here.
TEST(WindowWideningTest, WidenThenEvictMatchesFreshMine) {
  Rng rng(31);
  std::vector<std::vector<ColumnId>> narrow_rows;
  for (int r = 0; r < 20; ++r) {
    std::vector<ColumnId> row;
    for (ColumnId c = 0; c < 6; ++c) {
      if (rng.Bernoulli(0.4)) row.push_back(c);
    }
    narrow_rows.push_back(std::move(row));
  }
  std::vector<std::vector<ColumnId>> wide_rows;
  for (int r = 0; r < 15; ++r) {
    std::vector<ColumnId> row;
    for (ColumnId c = 0; c < 14; ++c) {
      if (rng.Bernoulli(0.3)) row.push_back(c);
    }
    wide_rows.push_back(std::move(row));
  }

  ImplicationMiningOptions o;
  o.min_confidence = 0.8;
  IncrementalImplicationMiner miner(o);
  ASSERT_TRUE(miner.AppendBatch(BinaryMatrix::FromRows(6, narrow_rows)).ok());
  ASSERT_TRUE(miner.AppendBatch(BinaryMatrix::FromRows(14, wide_rows)).ok());
  ASSERT_TRUE(miner.EvictBatch(narrow_rows.size()).ok());
  EXPECT_EQ(miner.num_columns(), 14u);

  const BinaryMatrix contents = BinaryMatrix::FromRows(14, wide_rows);
  EXPECT_EQ(miner.rules().rules(),
            BatchImp(contents, 0.8, MergeKernel::kAuto).rules());
  IncrementalImplicationMiner fresh(o);
  ASSERT_TRUE(fresh.AppendBatch(contents).ok());
  EXPECT_EQ(miner.MemoryBytes(), fresh.MemoryBytes());
}

// Count-bounded sliding mode: a miner with a row budget keeps exactly
// the newest window_rows rows and its rules always equal a fresh mine of
// them.
TEST(WindowedMinerTest, SlidingModeTracksNewestRows) {
  const ColumnId cols = 10;
  const uint64_t window = 25;
  Rng rng(57);
  std::vector<std::vector<ColumnId>> feed;
  for (int r = 0; r < 120; ++r) {
    std::vector<ColumnId> row;
    for (ColumnId c = 0; c < cols; ++c) {
      if (rng.Bernoulli(0.3)) row.push_back(c);
    }
    feed.push_back(std::move(row));
  }

  MetricsRegistry metrics;
  ImplicationMiningOptions io;
  io.min_confidence = 0.8;
  io.policy.observe.metrics = &metrics;
  IncrementalImplicationMiner imp(io, window);
  SimilarityMiningOptions so;
  so.min_similarity = 0.6;
  IncrementalSimilarityMiner sim(so, window);

  size_t pos = 0;
  Rng batch_rng(58);
  while (pos < feed.size()) {
    const size_t n =
        std::min<size_t>(1 + batch_rng.Uniform(12), feed.size() - pos);
    const std::vector<std::vector<ColumnId>> batch(
        feed.begin() + pos, feed.begin() + pos + n);
    pos += n;
    ASSERT_TRUE(imp.AppendBatch(BinaryMatrix::FromRows(cols, batch)).ok());
    ASSERT_TRUE(sim.AppendBatch(BinaryMatrix::FromRows(cols, batch)).ok());
    EXPECT_LE(imp.num_rows(), window);
    EXPECT_EQ(imp.num_rows(), std::min<uint64_t>(pos, window));

    const size_t head = pos > window ? pos - window : 0;
    const std::vector<std::vector<ColumnId>> live(feed.begin() + head,
                                                  feed.begin() + pos);
    const BinaryMatrix contents = BinaryMatrix::FromRows(cols, live);
    EXPECT_EQ(imp.rules().rules(),
              BatchImp(contents, 0.8, MergeKernel::kAuto).rules());
    EXPECT_EQ(sim.rules().pairs(),
              BatchSim(contents, 0.6, MergeKernel::kAuto).pairs());
  }
  EXPECT_GT(metrics.counter("dmc.window.slides"), 0u);
  EXPECT_EQ(metrics.counter("dmc.window.rows_evicted"),
            imp.cumulative().rows_evicted);
  EXPECT_EQ(imp.cumulative().rows_evicted,
            static_cast<uint64_t>(feed.size()) - window);
}

// FromBatchMine with an over-full seed trims down to the window, for
// each rule kind.
template <typename Kind>
void FromBatchMineTrims(double threshold) {
  SCOPED_TRACE(Kind::kName);
  Rng rng(71);
  std::vector<std::vector<ColumnId>> rows;
  for (int r = 0; r < 40; ++r) {
    std::vector<ColumnId> row;
    for (ColumnId c = 0; c < 8; ++c) {
      if (rng.Bernoulli(0.35)) row.push_back(c);
    }
    rows.push_back(std::move(row));
  }
  const BinaryMatrix seed = BinaryMatrix::FromRows(8, rows);
  typename Kind::Options o;
  o.*Kind::kThreshold = threshold;
  auto miner = IncrementalMiner<Kind>::FromBatchMine(seed, o, 15);
  ASSERT_TRUE(miner.ok()) << miner.status();
  EXPECT_EQ(miner->num_rows(), 15u);
  const std::vector<std::vector<ColumnId>> live(rows.end() - 15, rows.end());
  auto fresh = MineMatrix<Kind>(BinaryMatrix::FromRows(8, live), o, nullptr,
                                nullptr);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  fresh->Canonicalize();
  EXPECT_EQ(Items(miner->rules()), Items(*fresh));
}

TEST(WindowedMinerTest, FromBatchMineTrimsOverflow) {
  FromBatchMineTrims<ImplicationKind>(0.8);
  FromBatchMineTrims<SimilarityKind>(0.4);
}

// Edge contracts: zero evictions are no-ops, over-evictions fail cleanly
// with untouched state, and total eviction empties the rule set.
TEST(WindowEdgeTest, EvictBoundaries) {
  MatrixBuilder b(3);
  for (int i = 0; i < 10; ++i) b.AddRow({0, 1});
  ImplicationMiningOptions o;
  o.min_confidence = 0.9;
  IncrementalImplicationMiner miner(o);
  ASSERT_TRUE(miner.AppendBatch(b.Build()).ok());
  const std::string before = PrintImp(miner.rules());
  const size_t bytes_before = miner.MemoryBytes();

  IncrEvictStats stats;
  ASSERT_TRUE(miner.EvictBatch(0, &stats).ok());
  EXPECT_EQ(stats.rows_evicted, 0u);
  EXPECT_EQ(miner.num_rows(), 10u);
  EXPECT_EQ(PrintImp(miner.rules()), before);
  EXPECT_EQ(miner.MemoryBytes(), bytes_before);
  EXPECT_EQ(miner.cumulative().evict_batches, 0u);

  const Status too_many = miner.EvictBatch(11);
  EXPECT_FALSE(too_many.ok());
  EXPECT_EQ(miner.num_rows(), 10u);
  EXPECT_EQ(PrintImp(miner.rules()), before);

  ASSERT_TRUE(miner.EvictBatch(10, &stats).ok());
  EXPECT_EQ(miner.num_rows(), 0u);
  EXPECT_TRUE(miner.rules().empty());
  EXPECT_EQ(stats.candidates_killed, 1u);
  EXPECT_EQ(miner.cumulative().evict_batches, 1u);
  EXPECT_EQ(miner.cumulative().rows_evicted, 10u);

  // Regrow from empty: the state must behave like a brand-new miner.
  MatrixBuilder regrow(3);
  for (int i = 0; i < 5; ++i) regrow.AddRow({1, 2});
  ASSERT_TRUE(miner.AppendBatch(regrow.Build()).ok());
  EXPECT_EQ(miner.num_rows(), 5u);
  EXPECT_EQ(miner.rules().size(), 1u);
}

// Eviction can resurrect a pair: dropping prefix rows that miss removes
// misses faster than hits, so a below-threshold pair comes back — the
// regeneration pass's reason to exist.
TEST(WindowEdgeTest, EvictionResurrectsFailedPair) {
  MatrixBuilder b(2);
  for (int i = 0; i < 3; ++i) b.AddRow({0});  // prefix misses both ways
  for (int i = 0; i < 3; ++i) b.AddRow({1});
  for (int i = 0; i < 10; ++i) b.AddRow({0, 1});
  ImplicationMiningOptions o;
  o.min_confidence = 0.9;
  IncrementalImplicationMiner miner(o);
  ASSERT_TRUE(miner.AppendBatch(b.Build()).ok());
  // Sparser-first 0 => 1: 3 misses of 13 ones, budget 1 — not held.
  ASSERT_TRUE(miner.rules().empty());

  IncrEvictStats stats;
  ASSERT_TRUE(miner.EvictBatch(6, &stats).ok());
  // Only perfect co-occurrences remain; the pair was not held, so only
  // the regeneration pass (seeded from evicted ones) can bring it back.
  ASSERT_EQ(miner.rules().size(), 1u);
  EXPECT_EQ(miner.rules().rules()[0].misses, 0u);
  EXPECT_EQ(miner.rules().rules()[0].lhs_ones, 10u);
  EXPECT_GT(stats.regen_pairs_examined, 0u);
  EXPECT_EQ(stats.candidates_regenerated, 1u);
}

}  // namespace
}  // namespace dmc
