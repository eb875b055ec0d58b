// Differential test of StreamPhases' phase plan. The step-3 cutoff is
// decided from ones(c) before any pass and splits the antecedents: the
// 100% pass mines the cut columns the caller owns (every column at
// threshold 1) and is skipped when it owns none; the sub-100% pass mines
// the rest, 100% rules included. Across both rule kinds, thresholds that
// cut no column, some columns and 1.0, no antecedent mask and a 2-way
// partition, a forced DMC-bitmap switch on and off, and the scalar and
// SIMD kernels:
//  * the rules equal BruteForce's;
//  * the rows are replayed once when no owned column is cut (or at
//    threshold 1), twice otherwise, and a skipped 100% phase reports 0 s;
//  * a plan that cuts nothing equals the run without the 100% phase,
//    peaks and per-row histories included, and one that cuts columns
//    holds as many sub-100% candidates per row as a run over rows
//    without the cut columns;
//  * the two masked runs union to the unmasked one;
//  * rules_from_hundred_phase counts the 100% records.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "baselines/bruteforce.h"
#include "core/kernels.h"
#include "core/streaming_pass.h"
#include "matrix/binary_matrix.h"
#include "matrix/row_order.h"
#include "util/random.h"

namespace dmc {
namespace {

constexpr uint32_t kRows = 400;
constexpr uint32_t kCols = 40;
// Columns kLow.. are the planted low-count ones.
constexpr ColumnId kLow = kCols - 4;

// Random rows with structure at both ends of the cutoff: columns 0 and 1
// dense and nearly identical (sub-100% rules at a high threshold), and
// four low-count columns that fit only in 100% rules there — kLow and
// kLow+1 identical (8 ones), kLow+2 (6 ones) a subset of column 0, and
// kLow+3 (5 ones) placed at random.
BinaryMatrix PlantedMatrix(uint64_t seed) {
  Rng rng(seed);
  MatrixBuilder b(kCols);
  std::vector<ColumnId> row;
  for (uint32_t r = 0; r < kRows; ++r) {
    row.clear();
    const bool pair_row = r % 50 == 0;
    const bool subset_row = r % 67 == 3;
    const bool base = pair_row || subset_row || rng.Bernoulli(0.3);
    if (base) row.push_back(0);
    if (base ? !rng.Bernoulli(0.03) : rng.Bernoulli(0.01)) row.push_back(1);
    for (ColumnId c = 2; c < kLow; ++c) {
      if (rng.Bernoulli(0.12)) row.push_back(c);
    }
    if (pair_row) {
      row.push_back(kLow);
      row.push_back(kLow + 1);
    }
    if (subset_row) row.push_back(kLow + 2);
    if (r % 97 == 7) row.push_back(kLow + 3);
    b.AddRow(row);
  }
  return b.Build();
}

template <typename Kind>
typename Kind::RuleSet BruteForce(const BinaryMatrix& m, double threshold) {
  if constexpr (std::is_same_v<Kind, ImplicationKind>) {
    return BruteForceImplications(m, threshold);
  } else {
    return BruteForceSimilarities(m, threshold);
  }
}

template <typename Kind>
std::vector<typename Kind::Rule> Records(const typename Kind::RuleSet& s) {
  return {s.begin(), s.end()};
}

template <typename Kind>
struct Run {
  typename Kind::RuleSet rules;
  MiningStats stats;
  int replays = 0;
};

// Streams the rows in `order` through StreamPhases; with `keep`, only
// the marked columns of each row.
template <typename Kind>
Run<Kind> RunPhases(const BinaryMatrix& m, const std::vector<RowId>& order,
                    const typename Kind::Options& options,
                    const std::vector<uint8_t>* mask,
                    const std::vector<uint8_t>* keep = nullptr) {
  Run<Kind> run;
  std::vector<ColumnId> kept;
  const auto replay = [&](auto&& sink) {
    ++run.replays;
    for (const RowId r : order) {
      if (keep == nullptr) {
        sink(m.Row(r));
        continue;
      }
      kept.clear();
      for (const ColumnId c : m.Row(r)) {
        if ((*keep)[c]) kept.push_back(c);
      }
      sink(std::span<const ColumnId>(kept));
    }
  };
  auto rules = StreamPhases<Kind>(m.num_columns(), m.column_ones(),
                                  m.num_rows(), options, replay, mask,
                                  &run.stats);
  EXPECT_TRUE(rules.ok()) << rules.status();
  if (rules.ok()) run.rules = std::move(*rules);
  return run;
}

// Replays the plan should take: the sub-100% pass always runs below
// threshold 1, the 100% pass at threshold 1 or when `mask` owns a column
// the cutoff removes.
template <typename Kind>
int ExpectedReplays(const BinaryMatrix& m, double threshold,
                    const std::vector<uint8_t>* mask) {
  if (threshold == 1.0) return 1;
  for (ColumnId c = 0; c < m.num_columns(); ++c) {
    const uint32_t ones = m.column_ones()[c];
    const bool owned = mask == nullptr || (*mask)[c] != 0;
    if (owned && ones > 0 && !Kind::SurvivesCutoff(ones, threshold)) return 2;
  }
  return 1;
}

template <typename Kind>
size_t HundredPercentRecords(const typename Kind::RuleSet& rules) {
  return static_cast<size_t>(
      std::count_if(rules.begin(), rules.end(), &Kind::IsHundredPercent));
}

struct Threshold {
  double value;
  size_t cut;  // columns the cutoff removes at this value
};

template <typename Kind>
void CheckPlans(const std::vector<Threshold>& thresholds) {
  // Part 0 owns the even columns below kLow, so it owns no cut column at
  // any threshold below 1; part 1 owns the rest.
  std::vector<std::vector<uint8_t>> parts(2, std::vector<uint8_t>(kCols));
  for (ColumnId c = 0; c < kCols; ++c) {
    const bool first = c < kLow && c % 2 == 0;
    parts[0][c] = first;
    parts[1][c] = !first;
  }
  for (const uint64_t seed : {3u, 4u}) {
    const BinaryMatrix m = PlantedMatrix(seed);
    const std::vector<RowId> order = DensityBucketOrder(m).order;
    for (const Threshold& t : thresholds) {
      const auto truth = Records<Kind>(BruteForce<Kind>(m, t.value));
      for (const bool forced_bitmap : {false, true}) {
        for (const MergeKernel kernel :
             {MergeKernel::kScalar, MergeKernel::kSimd}) {
          const std::string label =
              std::string(Kind::kName) + " seed=" + std::to_string(seed) +
              " t=" + std::to_string(t.value) +
              " bitmap=" + std::to_string(forced_bitmap) +
              " kernel=" + KernelName(kernel);
          SCOPED_TRACE(label);
          typename Kind::Options options;
          options.*Kind::kThreshold = t.value;
          options.policy.kernel = kernel;
          options.policy.record_history = true;
          if (forced_bitmap) {
            options.policy.memory_threshold_bytes = 0;
            options.policy.bitmap_max_remaining_rows = 128;
          }

          const Run<Kind> full = RunPhases<Kind>(m, order, options, nullptr);
          EXPECT_EQ(Records<Kind>(full.rules), truth);
          EXPECT_EQ(full.stats.columns_cut_off, t.cut);
          EXPECT_EQ(full.replays, ExpectedReplays<Kind>(m, t.value, nullptr));
          EXPECT_EQ(full.stats.sub_bitmap_triggered,
                    forced_bitmap && t.value < 1.0);
          EXPECT_EQ(full.stats.rules_from_hundred_phase,
                    HundredPercentRecords<Kind>(full.rules));
          EXPECT_EQ(full.stats.rules_from_hundred_phase +
                        full.stats.rules_from_sub_phase,
                    full.rules.size());

          typename Kind::Options off = options;
          off.policy.hundred_percent_phase = false;
          if (t.cut > 0) {
            // The cut columns stay in the rows, yet the sub-100% pass
            // holds as many candidates on every row as one over rows
            // without them: no cut column joins an uncut list.
            std::vector<uint8_t> uncut(kCols);
            for (ColumnId c = 0; c < kCols; ++c) {
              uncut[c] = Kind::SurvivesCutoff(m.column_ones()[c], t.value);
            }
            const Run<Kind> filtered =
                RunPhases<Kind>(m, order, off, nullptr, &uncut);
            const auto& got = full.stats.candidate_history;
            const auto& want = filtered.stats.candidate_history;
            ASSERT_GE(got.size(), want.size());
            EXPECT_EQ(std::vector<size_t>(got.end() - want.size(), got.end()),
                      want);
          } else {
            const Run<Kind> ablation =
                RunPhases<Kind>(m, order, off, nullptr);
            EXPECT_EQ(Records<Kind>(full.rules),
                      Records<Kind>(ablation.rules));
            EXPECT_EQ(full.replays, ablation.replays);
            EXPECT_EQ(full.stats.peak_counter_bytes,
                      ablation.stats.peak_counter_bytes);
            EXPECT_EQ(full.stats.peak_candidates,
                      ablation.stats.peak_candidates);
            EXPECT_EQ(full.stats.memory_history,
                      ablation.stats.memory_history);
            EXPECT_EQ(full.stats.candidate_history,
                      ablation.stats.candidate_history);
          }

          typename Kind::RuleSet merged;
          size_t hundred_rules = 0;
          for (size_t p = 0; p < parts.size(); ++p) {
            SCOPED_TRACE("part " + std::to_string(p));
            const Run<Kind> part = RunPhases<Kind>(m, order, options,
                                                   &parts[p]);
            const int want = ExpectedReplays<Kind>(m, t.value, &parts[p]);
            EXPECT_EQ(part.replays, want);
            if (want == 1 && t.value < 1.0) {
              EXPECT_EQ(part.stats.hundred_seconds(), 0.0);
              EXPECT_FALSE(part.stats.hundred_bitmap_triggered);
            }
            EXPECT_EQ(part.stats.rules_from_hundred_phase,
                      HundredPercentRecords<Kind>(part.rules));
            hundred_rules += part.stats.rules_from_hundred_phase;
            for (const auto& r : part.rules) merged.Add(r);
          }
          merged.Canonicalize();
          EXPECT_EQ(Records<Kind>(merged), Records<Kind>(full.rules));
          EXPECT_EQ(hundred_rules, full.stats.rules_from_hundred_phase);
        }
      }
    }
  }
}

// minconf 0.4 keeps every column with 2 or more ones; 0.9 cuts the four
// planted columns (fewer than 10 ones), none of the rest.
TEST(PhasePlanTest, ImplicationPlansMatchBruteForceAndTheAblation) {
  CheckPlans<ImplicationKind>({{0.4, 0}, {0.9, 4}, {1.0, 0}});
}

// minsim 0.6 keeps every column with 2 or more ones; 0.9 cuts the four
// planted columns (fewer than 9 ones), none of the rest.
TEST(PhasePlanTest, SimilarityPlansMatchBruteForceAndTheAblation) {
  CheckPlans<SimilarityKind>({{0.6, 0}, {0.9, 4}, {1.0, 0}});
}

}  // namespace
}  // namespace dmc
