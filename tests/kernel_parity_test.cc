// Differential parity: every MergeKernel choice must produce the same
// rules AND the same byte-level accounting. The in-place/SIMD kernels are
// pure layout/speed changes — any divergence from kLegacy in rule sets,
// peak_counter_bytes, peak_candidates, or the per-row history curves is a
// bug, and this harness is the tripwire.

#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/kernels.h"
#include "core/streaming_imp.h"
#include "core/streaming_sim.h"
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

// Rules, accounting peaks, AND per-row history must all match. Exact
// struct equality on rules also compares the underlying counts.
void ExpectStatsEqual(const MiningStats& want, const MiningStats& got,
                      const char* label) {
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
        const ImpRun ref =
            RunImp(m, MergeKernel::kLegacy, order, /*conf=*/0.7);
        for (const MergeKernel k : kAllKernels) {
          const ImpRun got = RunImp(m, k, order, /*conf=*/0.7);
          EXPECT_EQ(ref.rules.rules(), got.rules.rules())
              << "kernel=" << KernelName(k) << " seed=" << seed
              << " density=" << density;
          ExpectStatsEqual(ref.stats, got.stats, KernelName(k));
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
        const SimRun ref =
            RunSim(m, MergeKernel::kLegacy, order, /*sim=*/0.4);
        for (const MergeKernel k : kAllKernels) {
          const SimRun got = RunSim(m, k, order, /*sim=*/0.4);
          EXPECT_EQ(ref.pairs.pairs(), got.pairs.pairs())
              << "kernel=" << KernelName(k) << " seed=" << seed
              << " density=" << density;
          ExpectStatsEqual(ref.stats, got.stats, KernelName(k));
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
    const ImpRun imp_ref = RunImp(m, MergeKernel::kLegacy, order, 0.5);
    EXPECT_FALSE(imp_ref.rules.empty());
    const SimRun sim_ref = RunSim(m, MergeKernel::kLegacy, order, 0.3);
    EXPECT_FALSE(sim_ref.pairs.empty());
    for (const MergeKernel k : kAllKernels) {
      const ImpRun imp = RunImp(m, k, order, 0.5);
      EXPECT_EQ(imp_ref.rules.rules(), imp.rules.rules()) << KernelName(k);
      ExpectStatsEqual(imp_ref.stats, imp.stats, KernelName(k));
      const SimRun sim = RunSim(m, k, order, 0.3);
      EXPECT_EQ(sim_ref.pairs.pairs(), sim.pairs.pairs()) << KernelName(k);
      ExpectStatsEqual(sim_ref.stats, sim.stats, KernelName(k));
    }
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
        auto imp_ref = MineImplicationsSharded(m, imp, mask, &imp_ref_stats);
        ASSERT_TRUE(imp_ref.ok());
        EXPECT_EQ(imp_ref_stats.sub_bitmap_triggered, forced_bitmap);

        SimilarityMiningOptions sim;
        sim.min_similarity = 0.3;
        sim.policy = base;
        sim.policy.kernel = MergeKernel::kLegacy;
        MiningStats sim_ref_stats;
        auto sim_ref = MineSimilaritiesSharded(m, sim, mask, &sim_ref_stats);
        ASSERT_TRUE(sim_ref.ok());

        for (const MergeKernel k : kAllKernels) {
          imp.policy.kernel = k;
          MiningStats imp_stats;
          auto got_imp =
              StreamImplications(m.num_columns(), m.column_ones(),
                                 m.num_rows(), imp, replay, &mask, &imp_stats);
          ASSERT_TRUE(got_imp.ok()) << KernelName(k);
          EXPECT_EQ(got_imp->rules(), imp_ref->rules()) << KernelName(k);
          EXPECT_EQ(imp_stats.peak_counter_bytes,
                    imp_ref_stats.peak_counter_bytes)
              << KernelName(k) << " bitmap=" << forced_bitmap;

          sim.policy.kernel = k;
          MiningStats sim_stats;
          auto got_sim =
              StreamSimilarities(m.num_columns(), m.column_ones(),
                                 m.num_rows(), sim, replay, &mask, &sim_stats);
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
