// Differential test harness locking down the observability layer: the
// numbers the exporters emit must agree with each other and with the
// mined rule sets, on planted datasets where both can be computed
// independently.
//
// Invariants covered:
//   1. rules_from_hundred_phase + rules_from_sub_phase == ruleset size
//   2. max(memory_history) == peak_counter_bytes (history recording on)
//   3. the phase timers sum to <= total_seconds
//   4. parallel per-shard stats aggregate exactly (rule counts sum to
//      the serial run's, peaks max/sum correctly)
//   5. RecordToRegistry mirrors the stats struct field-for-field

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "core/dmc_imp.h"
#include "core/dmc_sim.h"
#include "core/parallel_dmc.h"
#include "matrix/binary_matrix.h"
#include "observe/metrics.h"
#include "observe/stats_export.h"
#include "observe/trace.h"
#include "util/random.h"

namespace dmc {
namespace {

// A planted matrix dense enough that both phases produce rules: a block
// of near-identical columns (100%-phase material) plus random columns
// with correlated pairs (sub-phase material).
BinaryMatrix PlantedMatrix(uint32_t rows, uint32_t cols, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<ColumnId>> matrix_rows(rows);
  for (uint32_t r = 0; r < rows; ++r) {
    // Columns 0..2: identical except for a few planted misses.
    const bool base = rng.Bernoulli(0.4);
    for (ColumnId c = 0; c < 3 && c < cols; ++c) {
      if (base && !(c == 1 && rng.Bernoulli(0.02))) {
        matrix_rows[r].push_back(c);
      }
    }
    // Remaining columns: independent, with column c correlated to c+1.
    bool prev = false;
    for (ColumnId c = 3; c < cols; ++c) {
      const bool bit = prev ? rng.Bernoulli(0.8) : rng.Bernoulli(0.15);
      if (bit) matrix_rows[r].push_back(c);
      prev = bit;
    }
  }
  return BinaryMatrix::FromRows(cols, matrix_rows);
}

ImplicationMiningOptions ImpOptions(double minconf) {
  ImplicationMiningOptions o;
  o.min_confidence = minconf;
  return o;
}

SimilarityMiningOptions SimOptions(double minsim) {
  SimilarityMiningOptions o;
  o.min_similarity = minsim;
  return o;
}

// --- invariant 1: phase rule counts partition the rule set -----------

TEST(MetricsInvariantsTest, ImpPhaseRuleCountsPartitionRuleSet) {
  const BinaryMatrix m = PlantedMatrix(400, 24, 7);
  for (double minconf : {0.7, 0.9, 1.0}) {
    MiningStats stats;
    auto rules = MineImplications(m, ImpOptions(minconf), &stats);
    ASSERT_TRUE(rules.ok()) << "minconf=" << minconf;
    EXPECT_EQ(stats.rules_from_hundred_phase + stats.rules_from_sub_phase,
              rules->size())
        << "minconf=" << minconf;
  }
}

TEST(MetricsInvariantsTest, SimPhaseRuleCountsPartitionRuleSet) {
  const BinaryMatrix m = PlantedMatrix(400, 24, 11);
  for (double minsim : {0.5, 0.8, 1.0}) {
    MiningStats stats;
    auto rules = MineSimilarities(m, SimOptions(minsim), &stats);
    ASSERT_TRUE(rules.ok()) << "minsim=" << minsim;
    EXPECT_EQ(stats.rules_from_hundred_phase + stats.rules_from_sub_phase,
              rules->size())
        << "minsim=" << minsim;
  }
}

// --- invariant 2: memory history peak matches the reported peak ------

TEST(MetricsInvariantsTest, MemoryHistoryPeakMatchesPeakCounterBytes) {
  const BinaryMatrix m = PlantedMatrix(300, 20, 13);
  ImplicationMiningOptions o = ImpOptions(0.85);
  o.policy.record_history = true;
  MiningStats stats;
  auto rules = MineImplications(m, o, &stats);
  ASSERT_TRUE(rules.ok());
  ASSERT_FALSE(stats.memory_history.empty());
  const size_t history_peak =
      *std::max_element(stats.memory_history.begin(),
                        stats.memory_history.end());
  EXPECT_EQ(history_peak, stats.peak_counter_bytes);
  ASSERT_FALSE(stats.candidate_history.empty());
  const size_t candidate_peak =
      *std::max_element(stats.candidate_history.begin(),
                        stats.candidate_history.end());
  EXPECT_EQ(candidate_peak, stats.peak_candidates);
}

// --- invariant 3: phase timers bounded by the total ------------------

TEST(MetricsInvariantsTest, PhaseTimersSumToAtMostTotal) {
  const BinaryMatrix m = PlantedMatrix(500, 24, 17);
  MiningStats stats;
  auto rules = MineImplications(m, ImpOptions(0.9), &stats);
  ASSERT_TRUE(rules.ok());
  const double phase_sum = stats.prescan_seconds + stats.hundred_seconds() +
                           stats.sub_seconds();
  EXPECT_GE(stats.total_seconds, 0.0);
  // The phases are disjoint sub-intervals of the total; allow a small
  // absolute slack for clock granularity.
  EXPECT_LE(phase_sum, stats.total_seconds + 1e-3);
}

// --- invariant 4: parallel per-shard stats aggregate exactly ---------

TEST(MetricsInvariantsTest, ParallelPerShardStatsAggregateToSerial) {
  const BinaryMatrix m = PlantedMatrix(400, 24, 19);
  const ImplicationMiningOptions options = ImpOptions(0.85);

  auto serial = MineImplications(m, options);
  ASSERT_TRUE(serial.ok());

  ParallelOptions popts;
  popts.num_threads = 4;
  ParallelMiningStats pstats;
  auto parallel = MineImplicationsParallel(m, options, popts, &pstats);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel->Pairs(), serial->Pairs());

  ASSERT_EQ(pstats.per_shard.size(), pstats.shards);
  ASSERT_GT(pstats.shards, 0u);

  size_t shard_rules = 0;
  size_t sum_peak = 0;
  size_t max_peak = 0;
  double sum_seconds = 0.0;
  double max_seconds = 0.0;
  for (const MiningStats& s : pstats.per_shard) {
    shard_rules += s.rules_from_hundred_phase + s.rules_from_sub_phase;
    sum_peak += s.peak_counter_bytes;
    max_peak = std::max(max_peak, s.peak_counter_bytes);
    sum_seconds += s.total_seconds;
    max_seconds = std::max(max_seconds, s.total_seconds);
  }
  // Shard outputs are disjoint, so per-shard rule counts sum to the
  // serial rule-set size.
  EXPECT_EQ(shard_rules, serial->size());
  EXPECT_EQ(pstats.sum_peak_counter_bytes, sum_peak);
  EXPECT_EQ(pstats.max_peak_counter_bytes, max_peak);
  EXPECT_DOUBLE_EQ(pstats.sum_shard_seconds, sum_seconds);
  EXPECT_DOUBLE_EQ(pstats.max_shard_seconds, max_seconds);
  EXPECT_LE(pstats.max_shard_seconds, pstats.sum_shard_seconds + 1e-12);
}

// --- invariant 5: registry mirror matches the stats struct -----------

TEST(MetricsInvariantsTest, RegistryMirrorsEngineStats) {
  const BinaryMatrix m = PlantedMatrix(300, 20, 23);
  MetricsRegistry registry;
  TraceSink sink;
  ImplicationMiningOptions o = ImpOptions(0.85);
  o.policy.observe.metrics = &registry;
  o.policy.observe.trace = &sink;
  o.policy.memory_threshold_bytes = 0;  // the bitmap tail fires
  o.policy.bitmap_max_remaining_rows = 16;
  MiningStats stats;
  auto rules = MineImplications(m, o, &stats);
  ASSERT_TRUE(rules.ok());

  // Every mirrored MiningStats field, by name and kind: six timers of
  // one sample each, two peaks, three counters, and two flags counted
  // once when set. sub_bitmap_rows and kernel are JSON only.
  const std::pair<const char*, double> timers[] = {
      {"imp.prescan_seconds", stats.prescan_seconds},
      {"imp.hundred_base_seconds", stats.hundred_base_seconds},
      {"imp.hundred_bitmap_seconds", stats.hundred_bitmap_seconds},
      {"imp.sub_base_seconds", stats.sub_base_seconds},
      {"imp.sub_bitmap_seconds", stats.sub_bitmap_seconds},
      {"imp.total_seconds", stats.total_seconds},
  };
  for (const auto& [name, seconds] : timers) {
    EXPECT_EQ(registry.timer(name).count, 1u) << name;
    EXPECT_DOUBLE_EQ(registry.timer(name).total_seconds, seconds) << name;
  }
  EXPECT_DOUBLE_EQ(registry.gauge("imp.peak_counter_bytes"),
                   static_cast<double>(stats.peak_counter_bytes));
  EXPECT_DOUBLE_EQ(registry.gauge("imp.peak_candidates"),
                   static_cast<double>(stats.peak_candidates));
  EXPECT_EQ(registry.counter("imp.rules_from_hundred_phase"),
            stats.rules_from_hundred_phase);
  EXPECT_EQ(registry.counter("imp.rules_from_sub_phase"),
            stats.rules_from_sub_phase);
  EXPECT_EQ(registry.counter("imp.columns_cut_off"), stats.columns_cut_off);
  ASSERT_TRUE(stats.sub_bitmap_triggered);
  EXPECT_EQ(registry.counter("imp.sub_bitmap_triggered"), 1u);
  EXPECT_EQ(registry.counters().count("imp.hundred_bitmap_triggered"),
            stats.hundred_bitmap_triggered ? 1u : 0u);
  EXPECT_EQ(registry.counters().count("imp.sub_bitmap_rows"), 0u);
  EXPECT_EQ(registry.gauges().count("imp.sub_bitmap_rows"), 0u);
  EXPECT_EQ(registry.counters().size(), stats.hundred_bitmap_triggered ? 5u
                                                                       : 4u);
  EXPECT_EQ(registry.gauges().size(), 2u);
  EXPECT_EQ(registry.timers().size(), 6u);

  // The trace must contain the pipeline spans; the 100% phase runs only
  // when the cutoff leaves it a column to mine.
  const auto events = sink.Snapshot();
  int prescan = 0, hundred = 0, sub = 0, canonicalize = 0;
  for (const TraceEvent& e : events) {
    prescan += e.name == "imp/prescan";
    hundred += e.name == "imp/hundred_phase";
    sub += e.name == "imp/sub_phase";
    canonicalize += e.name == "imp/canonicalize";
  }
  EXPECT_EQ(prescan, 1);
  EXPECT_EQ(hundred, stats.columns_cut_off > 0 ? 1 : 0);
  EXPECT_EQ(sub, 1);
  EXPECT_EQ(canonicalize, 1);
}

TEST(MetricsInvariantsTest, RegistryMirrorsParallelStats) {
  const BinaryMatrix m = PlantedMatrix(300, 20, 31);
  MetricsRegistry registry;
  ImplicationMiningOptions o = ImpOptions(0.85);
  o.policy.observe.metrics = &registry;
  ParallelOptions popts;
  popts.num_threads = 3;
  ParallelMiningStats stats;
  ASSERT_TRUE(MineImplicationsParallel(m, o, popts, &stats).ok());

  // Three timers of one sample each, two peaks, the shard count and two
  // failure counters; per_shard reaches the registry only through the
  // shards' own "imp." mirrors.
  const std::pair<const char*, double> timers[] = {
      {"parallel.total_seconds", stats.total_seconds},
      {"parallel.max_shard_seconds", stats.max_shard_seconds},
      {"parallel.sum_shard_seconds", stats.sum_shard_seconds},
  };
  for (const auto& [name, seconds] : timers) {
    EXPECT_EQ(registry.timer(name).count, 1u) << name;
    EXPECT_DOUBLE_EQ(registry.timer(name).total_seconds, seconds) << name;
  }
  EXPECT_DOUBLE_EQ(registry.gauge("parallel.sum_peak_counter_bytes"),
                   static_cast<double>(stats.sum_peak_counter_bytes));
  EXPECT_DOUBLE_EQ(registry.gauge("parallel.max_peak_counter_bytes"),
                   static_cast<double>(stats.max_peak_counter_bytes));
  EXPECT_DOUBLE_EQ(registry.gauge("parallel.shards"), 3.0);
  EXPECT_EQ(registry.counter("parallel.shards_failed"), 0u);
  EXPECT_EQ(registry.counter("parallel.shards_degraded"), 0u);
  EXPECT_EQ(registry.counters().count("parallel.shards_failed"), 1u);
  EXPECT_EQ(registry.counters().count("parallel.shards_degraded"), 1u);
  EXPECT_EQ(registry.timer("imp.total_seconds").count, 3u);
}

// --- progress stream sanity ------------------------------------------

TEST(MetricsInvariantsTest, ProgressRowsMonotonicPerPhaseAndComplete) {
  const BinaryMatrix m = PlantedMatrix(300, 20, 29);
  ImplicationMiningOptions o = ImpOptions(0.85);
  o.policy.observe.progress_interval_rows = 64;
  std::vector<ProgressUpdate> updates;
  o.policy.observe.progress = [&updates](const ProgressUpdate& u) {
    updates.push_back(u);
    return true;
  };
  auto rules = MineImplications(m, o);
  ASSERT_TRUE(rules.ok());
  ASSERT_FALSE(updates.empty());
  for (size_t i = 1; i < updates.size(); ++i) {
    if (std::string(updates[i].phase) == updates[i - 1].phase) {
      EXPECT_LE(updates[i - 1].rows_processed, updates[i].rows_processed);
    }
  }
  for (const ProgressUpdate& u : updates) {
    EXPECT_EQ(u.shard, -1);  // serial run
    if (u.total_rows > 0) {
      EXPECT_LE(u.rows_processed, u.total_rows);
    }
  }
}

}  // namespace
}  // namespace dmc
