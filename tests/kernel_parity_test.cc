// Differential parity: every MergeKernel choice must produce the same
// rules AND the same byte-level accounting. The in-place/SIMD kernels are
// pure layout/speed changes — any divergence from kLegacy in rule sets,
// peak_counter_bytes, peak_candidates, or the per-row history curves is a
// bug, and this harness is the tripwire.

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/kernels.h"
#include "core/streaming_pass.h"
#include "matrix/binary_matrix.h"
#include "matrix/row_order.h"
#include "util/random.h"

namespace dmc {
namespace {

BinaryMatrix RandomMatrix(uint64_t seed, uint32_t rows, uint32_t cols,
                          double density) {
  Rng rng(seed);
  MatrixBuilder b(cols);
  std::vector<ColumnId> row;
  for (uint32_t r = 0; r < rows; ++r) {
    row.clear();
    for (uint32_t c = 0; c < cols; ++c) {
      if (rng.Bernoulli(density)) row.push_back(c);
    }
    b.AddRow(row);
  }
  return b.Build();
}

const MergeKernel kAllKernels[] = {MergeKernel::kLegacy, MergeKernel::kScalar,
                                   MergeKernel::kSimd, MergeKernel::kAuto};

struct ImpRun {
  ImplicationRuleSet rules;
  MiningStats stats;
};

ImpRun RunImp(const BinaryMatrix& m, MergeKernel kernel, RowOrderPolicy order,
              double conf, const DmcPolicy* base = nullptr) {
  ImplicationMiningOptions o;
  if (base != nullptr) o.policy = *base;
  o.min_confidence = conf;
  o.policy.kernel = kernel;
  o.policy.row_order = order;
  o.policy.record_history = true;
  ImpRun run;
  auto rules = MineImplications(m, o, &run.stats);
  EXPECT_TRUE(rules.ok());
  if (rules.ok()) run.rules = std::move(*rules);
  run.rules.Canonicalize();
  return run;
}

struct SimRun {
  SimilarityRuleSet pairs;
  MiningStats stats;
};

SimRun RunSim(const BinaryMatrix& m, MergeKernel kernel, RowOrderPolicy order,
              double sim, const DmcPolicy* base = nullptr) {
  SimilarityMiningOptions o;
  if (base != nullptr) o.policy = *base;
  o.min_similarity = sim;
  o.policy.kernel = kernel;
  o.policy.row_order = order;
  o.policy.record_history = true;
  SimRun run;
  auto pairs = MineSimilarities(m, o, &run.stats);
  EXPECT_TRUE(pairs.ok());
  if (pairs.ok()) run.pairs = std::move(*pairs);
  run.pairs.Canonicalize();
  return run;
}

// The default policy, then the three switches the rule kinds read
// differently: without the 100% phase each kind's sub-100% pass emits
// the 100% records itself; the §5.1/§5.2 pruning switches change only
// the similarity predicates, and with max_hits_pruning off kSimd's
// similarity pass takes the mask merge even where the vector sweep
// would be chosen.
struct BasePolicy {
  const char* name;
  DmcPolicy policy;
};

std::vector<BasePolicy> BasePolicies() {
  std::vector<BasePolicy> out = {{"default", {}},
                                 {"no_hundred_phase", {}},
                                 {"no_density_pruning", {}},
                                 {"no_max_hits_pruning", {}}};
  out[1].policy.hundred_percent_phase = false;
  out[2].policy.column_density_pruning = false;
  out[3].policy.max_hits_pruning = false;
  return out;
}

// Rules, accounting peaks, AND per-row history must all match. Exact
// struct equality on rules also compares the underlying counts.
void ExpectStatsEqual(const MiningStats& want, const MiningStats& got,
                      const std::string& label) {
  EXPECT_EQ(want.peak_counter_bytes, got.peak_counter_bytes) << label;
  EXPECT_EQ(want.peak_candidates, got.peak_candidates) << label;
  EXPECT_EQ(want.memory_history, got.memory_history) << label;
  EXPECT_EQ(want.candidate_history, got.candidate_history) << label;
  EXPECT_EQ(want.hundred_bitmap_triggered, got.hundred_bitmap_triggered)
      << label;
  EXPECT_EQ(want.sub_bitmap_triggered, got.sub_bitmap_triggered) << label;
  EXPECT_EQ(want.sub_bitmap_rows, got.sub_bitmap_rows) << label;
}

TEST(KernelParityTest, ImplicationsAcrossSeedsDensitiesAndOrders) {
  for (const uint64_t seed : {1u, 2u}) {
    for (const double density : {0.05, 0.30}) {
      const BinaryMatrix m = RandomMatrix(seed, 300, 60, density);
      for (const RowOrderPolicy order :
           {RowOrderPolicy::kIdentity, RowOrderPolicy::kDensityBuckets}) {
        for (const BasePolicy& base : BasePolicies()) {
          const ImpRun ref = RunImp(m, MergeKernel::kLegacy, order,
                                    /*conf=*/0.7, &base.policy);
          for (const MergeKernel k : kAllKernels) {
            const ImpRun got = RunImp(m, k, order, /*conf=*/0.7,
                                      &base.policy);
            EXPECT_EQ(ref.rules.rules(), got.rules.rules())
                << "kernel=" << KernelName(k) << " seed=" << seed
                << " density=" << density << " policy=" << base.name;
            ExpectStatsEqual(ref.stats, got.stats,
                             std::string(KernelName(k)) + " " + base.name);
          }
        }
      }
    }
  }
}

TEST(KernelParityTest, SimilaritiesAcrossSeedsDensitiesAndOrders) {
  for (const uint64_t seed : {3u, 4u}) {
    for (const double density : {0.05, 0.30}) {
      const BinaryMatrix m = RandomMatrix(seed, 300, 60, density);
      for (const RowOrderPolicy order :
           {RowOrderPolicy::kIdentity, RowOrderPolicy::kDensityBuckets}) {
        for (const BasePolicy& base : BasePolicies()) {
          const SimRun ref = RunSim(m, MergeKernel::kLegacy, order,
                                    /*sim=*/0.4, &base.policy);
          for (const MergeKernel k : kAllKernels) {
            const SimRun got = RunSim(m, k, order, /*sim=*/0.4,
                                      &base.policy);
            EXPECT_EQ(ref.pairs.pairs(), got.pairs.pairs())
                << "kernel=" << KernelName(k) << " seed=" << seed
                << " density=" << density << " policy=" << base.name;
            ExpectStatsEqual(ref.stats, got.stats,
                             std::string(KernelName(k)) + " " + base.name);
          }
        }
      }
    }
  }
}

TEST(KernelParityTest, ImplicationsWithForcedBitmapSwitch) {
  // Force the DMC-bitmap fallback (§4.2): threshold 0 makes the switch
  // fire as soon as few enough rows remain, exercising the
  // kernel-independent tail path plus the FlushColumn boundary.
  DmcPolicy base;
  base.memory_threshold_bytes = 0;
  base.bitmap_max_remaining_rows = 128;
  const BinaryMatrix m = RandomMatrix(9, 200, 40, 0.25);
  const ImpRun ref = RunImp(m, MergeKernel::kLegacy,
                            RowOrderPolicy::kDensityBuckets, 0.7, &base);
  EXPECT_TRUE(ref.stats.sub_bitmap_triggered);
  for (const MergeKernel k : kAllKernels) {
    const ImpRun got =
        RunImp(m, k, RowOrderPolicy::kDensityBuckets, 0.7, &base);
    EXPECT_EQ(ref.rules.rules(), got.rules.rules()) << KernelName(k);
    ExpectStatsEqual(ref.stats, got.stats, KernelName(k));
  }
}

TEST(KernelParityTest, SimilaritiesWithForcedBitmapSwitch) {
  DmcPolicy base;
  base.memory_threshold_bytes = 0;
  base.bitmap_max_remaining_rows = 128;
  const BinaryMatrix m = RandomMatrix(10, 200, 40, 0.25);
  const SimRun ref = RunSim(m, MergeKernel::kLegacy,
                            RowOrderPolicy::kDensityBuckets, 0.4, &base);
  for (const MergeKernel k : kAllKernels) {
    const SimRun got =
        RunSim(m, k, RowOrderPolicy::kDensityBuckets, 0.4, &base);
    EXPECT_EQ(ref.pairs.pairs(), got.pairs.pairs()) << KernelName(k);
    ExpectStatsEqual(ref.stats, got.stats, KernelName(k));
  }
}

// Every matrix above has at most 64 columns and mean rows of at least one
// one, so kSimd takes the vector sweep on all of them. This one is wide
// and sparse — mean row 5 ones against ceil(1000 / 64) = 16 sidecar
// words — so kernels::PreferVectorSweep sends kSimd to the row-mask
// merge, which keeps that side of the selection under parity too.
BinaryMatrix WideSparseMatrix() { return RandomMatrix(11, 400, 1000, 0.005); }

TEST(KernelParityTest, SelectionPutsTheMatricesOnBothSides) {
  const BinaryMatrix wide = WideSparseMatrix();
  EXPECT_FALSE(kernels::PreferVectorSweep(wide.num_columns(), wide.num_rows(),
                                          wide.num_ones()));
  const BinaryMatrix narrow = RandomMatrix(1, 300, 60, 0.05);
  EXPECT_EQ(kernels::PreferVectorSweep(narrow.num_columns(),
                                       narrow.num_rows(), narrow.num_ones()),
            kernels::VectorSweepAvailable());
}

TEST(KernelParityTest, WideSparseMatrixOnTheMaskSide) {
  const BinaryMatrix m = WideSparseMatrix();
  for (const RowOrderPolicy order :
       {RowOrderPolicy::kIdentity, RowOrderPolicy::kDensityBuckets}) {
    for (const BasePolicy& base : BasePolicies()) {
      const DmcPolicy* policy = &base.policy;
      const ImpRun imp_ref =
          RunImp(m, MergeKernel::kLegacy, order, 0.5, policy);
      EXPECT_FALSE(imp_ref.rules.empty());
      const SimRun sim_ref =
          RunSim(m, MergeKernel::kLegacy, order, 0.3, policy);
      EXPECT_FALSE(sim_ref.pairs.empty());
      for (const MergeKernel k : kAllKernels) {
        const ImpRun imp = RunImp(m, k, order, 0.5, policy);
        EXPECT_EQ(imp_ref.rules.rules(), imp.rules.rules())
            << KernelName(k) << " policy=" << base.name;
        ExpectStatsEqual(imp_ref.stats, imp.stats,
                         std::string(KernelName(k)) + " " + base.name);
        const SimRun sim = RunSim(m, k, order, 0.3, policy);
        EXPECT_EQ(sim_ref.pairs.pairs(), sim.pairs.pairs())
            << KernelName(k) << " policy=" << base.name;
        ExpectStatsEqual(sim_ref.stats, sim.stats,
                         std::string(KernelName(k)) + " " + base.name);
      }
    }
  }
}

// Correlated blocks over 160 columns, so a decided-set sidecar spans three
// words, the last one partly: 16 blocks of 10 columns, block g on in a row
// with probability 0.15 + 0.02 g, each column of an on block present with
// probability 0.85, plus 4% noise. A mean row of about 45 ones against 3
// sidecar words puts kSimd on the vector side.
BinaryMatrix WideBlockMatrix() {
  constexpr uint32_t kCols = 160, kBlock = 10;
  Rng rng(13);
  MatrixBuilder b(kCols);
  std::vector<ColumnId> row;
  for (uint32_t r = 0; r < 400; ++r) {
    row.clear();
    for (uint32_t g = 0; g < kCols / kBlock; ++g) {
      const bool on = rng.Bernoulli(0.15 + 0.02 * g);
      for (ColumnId c = g * kBlock; c < (g + 1) * kBlock; ++c) {
        if ((on && rng.Bernoulli(0.85)) || rng.Bernoulli(0.04)) {
          row.push_back(c);
        }
      }
    }
    b.AddRow(row);
  }
  return b.Build();
}

// Replays `order` through SimilarityKind's predicates the way one pass
// over every antecedent does, and counts the candidates that die on a hit
// and on a miss while cnt(cj) is within cj's column budget, i.e. while
// cj's list can still grow.
struct SimDeaths {
  size_t on_hit = 0;
  size_t on_miss = 0;
};

SimDeaths SimDeathsWhileListsGrow(const BinaryMatrix& m,
                                  const std::vector<RowId>& order,
                                  double minsim) {
  const std::vector<uint32_t>& ones = m.column_ones();
  const SimilarityKind kind(ones, minsim, DmcPolicy{}, /*vector_sweep=*/false);
  std::vector<uint32_t> cnt(m.num_columns(), 0);
  std::vector<std::map<ColumnId, uint32_t>> lists(m.num_columns());
  SimDeaths deaths;
  for (const RowId r : order) {
    const auto row = m.Row(r);
    for (const ColumnId cj : row) {
      const bool grows = cnt[cj] <= kind.ColumnBudget(cj);
      const auto pred = kind.ForList(cj, cnt[cj], cnt.data());
      std::map<ColumnId, uint32_t>& list = lists[cj];
      for (auto it = list.begin(); it != list.end();) {
        const bool hit = std::binary_search(row.begin(), row.end(), it->first);
        const bool keep = hit ? pred.KeepOnHit(it->first, it->second)
                              : pred.KeepOnMiss(it->first, it->second + 1);
        if (!keep) {
          if (grows) ++(hit ? deaths.on_hit : deaths.on_miss);
          it = list.erase(it);
          continue;
        }
        if (!hit) ++it->second;
        ++it;
      }
      if (!grows) continue;
      for (const ColumnId ck : row) {
        const bool qualifies = ones[ck] > ones[cj] ||
                               (ones[ck] == ones[cj] && ck > cj);
        if (qualifies && list.count(ck) == 0 && pred.AcceptNew(ck)) {
          list.emplace(ck, cnt[cj]);
        }
      }
    }
    for (const ColumnId c : row) ++cnt[c];
  }
  return deaths;
}

// The vector side with a multi-word sidecar: every matrix above is at most
// 64 columns wide, so a joiner walk that settled the wrong word, or
// settled a column it did not test, would pass them all.
TEST(KernelParityTest, MultiWordSidecarOnTheVectorSide) {
  const BinaryMatrix m = WideBlockMatrix();
  ASSERT_GE(m.num_columns(), 130u);
  EXPECT_EQ(kernels::PreferVectorSweep(m.num_columns(), m.num_rows(),
                                       m.num_ones()),
            kernels::VectorSweepAvailable());
  for (const RowOrderPolicy order :
       {RowOrderPolicy::kIdentity, RowOrderPolicy::kDensityBuckets}) {
    const SimDeaths deaths =
        SimDeathsWhileListsGrow(m, MakeRowOrder(m, order), 0.4);
    EXPECT_GT(deaths.on_hit, 0u);
    EXPECT_GT(deaths.on_miss, 0u);
    for (const BasePolicy& base : BasePolicies()) {
      const DmcPolicy* policy = &base.policy;
      const ImpRun imp_ref =
          RunImp(m, MergeKernel::kLegacy, order, 0.7, policy);
      EXPECT_FALSE(imp_ref.rules.empty());
      const SimRun sim_ref =
          RunSim(m, MergeKernel::kLegacy, order, 0.4, policy);
      EXPECT_FALSE(sim_ref.pairs.empty());
      for (const MergeKernel k : kAllKernels) {
        const std::string label =
            std::string(KernelName(k)) + " policy=" + base.name;
        const ImpRun imp = RunImp(m, k, order, 0.7, policy);
        EXPECT_EQ(imp_ref.rules.rules(), imp.rules.rules()) << label;
        ExpectStatsEqual(imp_ref.stats, imp.stats, label);
        const SimRun sim = RunSim(m, k, order, 0.4, policy);
        EXPECT_EQ(sim_ref.pairs.pairs(), sim.pairs.pairs()) << label;
        ExpectStatsEqual(sim_ref.stats, sim.stats, label);
      }
    }
  }
}

// One streamed pass over every antecedent of `m`, run to the end.
template <typename Kind>
uint64_t JoinerTests(const BinaryMatrix& m, double threshold) {
  typename StreamingPass<Kind>::Config cfg;
  cfg.num_columns = m.num_columns();
  cfg.ones = m.column_ones();
  cfg.total_rows = m.num_rows();
  cfg.threshold = threshold;
  cfg.policy.kernel = MergeKernel::kSimd;
  StreamingPass<Kind> pass(std::move(cfg));
  for (RowId r = 0; r < m.num_rows(); ++r) pass.ProcessRow(m.Row(r));
  EXPECT_TRUE(pass.Finish().ok());
  return pass.joiner_tests();
}

// The decided set tests each (antecedent, row column) pair at most once:
// the joiner walk's work is bounded by the distinct co-occurring pairs,
// not by rows times row width.
TEST(KernelParityTest, JoinerWalkTestsEachPairAtMostOnce) {
  const BinaryMatrix m = WideBlockMatrix();
  const ColumnId n = m.num_columns();
  std::vector<uint8_t> co(static_cast<size_t>(n) * n, 0);
  for (RowId r = 0; r < m.num_rows(); ++r) {
    const auto row = m.Row(r);
    for (const ColumnId a : row) {
      for (const ColumnId b : row) {
        if (a != b) co[static_cast<size_t>(a) * n + b] = 1;
      }
    }
  }
  const uint64_t pairs = static_cast<uint64_t>(
      std::count(co.begin(), co.end(), uint8_t{1}));
  const uint64_t imp = JoinerTests<ImplicationKind>(m, 0.7);
  const uint64_t sim = JoinerTests<SimilarityKind>(m, 0.4);
  EXPECT_LE(imp, pairs);
  EXPECT_LE(sim, pairs);
  if (kernels::VectorSweepAvailable()) {
    EXPECT_GT(imp, 0u);
    EXPECT_GT(sim, 0u);
  } else {
    EXPECT_EQ(imp, 0u);
    EXPECT_EQ(sim, 0u);
  }
}

// The phase drivers called directly, as the external miner and the shard
// workers call them: a replay of the matrix in density-bucket order
// under an antecedent mask, with and without the forced DMC-bitmap
// switch, on both sides of the kernel selection. Rules and the exact
// counter peak must match the kLegacy batch reference for every kernel.
TEST(KernelParityTest, StreamedPassesMatchTheLegacyBatchReference) {
  for (const BinaryMatrix& m :
       {RandomMatrix(12, 300, 60, 0.2), WideSparseMatrix()}) {
    const std::vector<RowId> order = DensityBucketOrder(m).order;
    const auto replay = [&](auto&& sink) {
      for (const RowId r : order) sink(m.Row(r));
    };
    const auto masks = MakeColumnShards(m.column_ones(), 3);
    for (const bool forced_bitmap : {false, true}) {
      DmcPolicy base;
      if (forced_bitmap) {
        base.memory_threshold_bytes = 0;
        base.bitmap_max_remaining_rows = 128;
      }
      for (const std::vector<uint8_t>& mask : masks) {
        ImplicationMiningOptions imp;
        imp.min_confidence = 0.5;
        imp.policy = base;
        imp.policy.kernel = MergeKernel::kLegacy;
        MiningStats imp_ref_stats;
        auto imp_ref =
            MineMatrix<ImplicationKind>(m, imp, &mask, &imp_ref_stats);
        ASSERT_TRUE(imp_ref.ok());
        EXPECT_EQ(imp_ref_stats.sub_bitmap_triggered, forced_bitmap);

        SimilarityMiningOptions sim;
        sim.min_similarity = 0.3;
        sim.policy = base;
        sim.policy.kernel = MergeKernel::kLegacy;
        MiningStats sim_ref_stats;
        auto sim_ref =
            MineMatrix<SimilarityKind>(m, sim, &mask, &sim_ref_stats);
        ASSERT_TRUE(sim_ref.ok());

        for (const MergeKernel k : kAllKernels) {
          imp.policy.kernel = k;
          MiningStats imp_stats;
          auto got_imp = StreamPhases<ImplicationKind>(
              m.num_columns(), m.column_ones(), m.num_rows(), imp, replay,
              &mask, &imp_stats);
          ASSERT_TRUE(got_imp.ok()) << KernelName(k);
          EXPECT_EQ(got_imp->rules(), imp_ref->rules()) << KernelName(k);
          EXPECT_EQ(imp_stats.peak_counter_bytes,
                    imp_ref_stats.peak_counter_bytes)
              << KernelName(k) << " bitmap=" << forced_bitmap;

          sim.policy.kernel = k;
          MiningStats sim_stats;
          auto got_sim = StreamPhases<SimilarityKind>(
              m.num_columns(), m.column_ones(), m.num_rows(), sim, replay,
              &mask, &sim_stats);
          ASSERT_TRUE(got_sim.ok()) << KernelName(k);
          EXPECT_EQ(got_sim->pairs(), sim_ref->pairs()) << KernelName(k);
          EXPECT_EQ(sim_stats.peak_counter_bytes,
                    sim_ref_stats.peak_counter_bytes)
              << KernelName(k) << " bitmap=" << forced_bitmap;
        }
      }
    }
  }
}

TEST(KernelParityTest, ResolveKernelNeverReturnsAutoOrUnsupported) {
  for (const MergeKernel k : kAllKernels) {
    const MergeKernel r = ResolveKernel(k);
    EXPECT_NE(r, MergeKernel::kAuto);
    if (r == MergeKernel::kSimd) {
      EXPECT_TRUE(SimdKernelAvailable());
    }
  }
  EXPECT_EQ(ResolveKernel(MergeKernel::kLegacy), MergeKernel::kLegacy);
  EXPECT_EQ(ResolveKernel(MergeKernel::kScalar), MergeKernel::kScalar);
}

TEST(KernelParityTest, KernelNameIsStable) {
  EXPECT_STREQ(KernelName(MergeKernel::kAuto), "auto");
  EXPECT_STREQ(KernelName(MergeKernel::kLegacy), "legacy");
  EXPECT_STREQ(KernelName(MergeKernel::kScalar), "scalar");
  EXPECT_STREQ(KernelName(MergeKernel::kSimd), "simd");
}

}  // namespace
}  // namespace dmc
