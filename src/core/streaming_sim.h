// The DMC-sim scan (Algorithm 5.1 steps 2/4) and its DMC-bitmap fallback,
// consuming rows one at a time — the only similarity scan loop in the
// repo, driven by MineSimilarities (dmc_sim.h), the external miner and
// the shard workers exactly as streaming_imp.h describes.
//
// Differences from the implication pass:
//  * the miss budget is per *pair*, not per column: with a = ones(c_i) <=
//    b = ones(c_j), Sim >= s iff mis(c_i against c_j) <= (a - s*b)/(1+s),
//    so the one-sided miss count kept on the sparser column determines
//    the similarity exactly;
//  * column-density pruning (§5.1) skips pairs with a/b < s outright;
//  * maximum-hits pruning (§5.2) deletes a candidate as soon as its best
//    achievable similarity falls below the threshold, even on hit rows.
//
// The kernel choice follows streaming_imp.h; the vector sweep hard-codes
// the default §5.2 predicates, so the pruning ablations keep the mask
// merge.

#ifndef DMC_CORE_STREAMING_SIM_H_
#define DMC_CORE_STREAMING_SIM_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/dmc_options.h"
#include "core/kernels.h"
#include "core/mining_stats.h"
#include "core/miss_counter_table.h"
#include "core/thresholds.h"
#include "matrix/binary_matrix.h"
#include "observe/trace.h"
#include "rules/rule_set.h"
#include "util/memory_tracker.h"
#include "util/statusor.h"
#include "util/stopwatch.h"

namespace dmc {

/// One streamed similarity pass (identical-column phase when
/// min_similarity == 1, or the sub-100% phase).
class StreamingSimilarityPass {
 public:
  struct Config {
    ColumnId num_columns = 0;
    std::vector<uint32_t> ones;
    uint64_t total_rows = 0;
    /// minsim in (0, 1]. Running with 1.0 is exactly the identical-column
    /// phase (step 2 of Algorithm 5.1).
    double min_similarity = 1.0;
    /// Active columns; empty = all active.
    std::vector<uint8_t> active;
    /// Antecedent shard (see StreamingImplicationPass::Config): only
    /// marked columns own candidate lists; an identical pair belongs to
    /// the shard of its lower-id column.
    std::vector<uint8_t> lhs_shard;
    /// When false, identical pairs (equal 1-counts, zero misses) are
    /// suppressed — they were produced by the 100%-similarity phase.
    bool emit_identical = true;
    size_t bytes_per_entry = MissCounterTable::kEntryBytesWithCounters;
    DmcPolicy policy;
    /// Phase label for progress updates and trace spans
    /// ("hundred_phase", "sub_phase").
    const char* phase = "pass";
    /// Shared accounting and per-row sinks; see
    /// StreamingImplicationPass::Config.
    MemoryTracker* tracker = nullptr;
    std::vector<size_t>* memory_history = nullptr;
    std::vector<size_t>* candidate_history = nullptr;
  };

  explicit StreamingSimilarityPass(Config config);

  StreamingSimilarityPass(const StreamingSimilarityPass&) = delete;
  StreamingSimilarityPass& operator=(const StreamingSimilarityPass&) =
      delete;

  void ProcessRow(std::span<const ColumnId> row);
  uint64_t rows_seen() const { return rows_seen_; }
  bool bitmap_mode() const { return bitmap_mode_; }
  size_t bitmap_rows() const { return tail_.size(); }
  double bitmap_seconds() const { return bitmap_seconds_; }
  /// Whether the progress callback asked to cancel; see
  /// StreamingImplicationPass::cancelled().
  bool cancelled() const { return !stop_.ok(); }
  size_t counter_bytes() const { return table_.bytes(); }
  size_t peak_counter_bytes() const { return tracker_->peak_bytes(); }
  size_t peak_candidates() const { return table_.peak_entries(); }

  [[nodiscard]] StatusOr<SimilarityRuleSet> Finish();

 private:
  bool LhsOk(ColumnId c) const {
    return config_.lhs_shard.empty() || config_.lhs_shard[c] != 0;
  }
  bool ActiveOk(ColumnId c) const {
    return config_.active.empty() || config_.active[c] != 0;
  }
  bool Qualifies(ColumnId ck, ColumnId cj) const;
  int64_t PairBudget(ColumnId ci, ColumnId ck) const;
  bool WithinPairBudget(uint32_t a, ColumnId ck, int64_t mis) const;
  bool SurvivesMaxHitsOnHit(ColumnId cj, ColumnId ck, uint32_t miss) const;
  bool SurvivesMaxHitsOnMiss(ColumnId cj, ColumnId ck,
                             uint32_t new_miss) const;
  std::span<const ColumnId> FilteredRow(std::span<const ColumnId> row);
  void MergeWithAdd(ColumnId cj, std::span<const ColumnId> row);
  void MergeMissOnly(ColumnId cj, std::span<const ColumnId> row);
  kernels::SimSweepParams MakeSweepParams(ColumnId cj) const;
  void VectorAddMerge(ColumnId cj, std::span<const ColumnId> row,
                      uint32_t base_miss);
  void FlushColumn(ColumnId cj);
  void EmitPair(ColumnId ci, ColumnId ck, uint32_t intersection);
  void RecordHistory();
  void RunBitmapPhases();

  Config config_;
  bool all_active_ = true;
  double one_plus_s_ = 2.0;
  double budget_eps_ = 0.0;
  MergeKernel kernel_;
  bool use_vector_ = false;
  MemoryTracker own_tracker_;
  MemoryTracker* tracker_;
  MissCounterTable table_;
  std::vector<uint32_t> cnt_;
  std::vector<int64_t> col_budget_;
  std::vector<double> s_ones_;  // min_similarity * ones[c]
  std::vector<int32_t> rem_;    // ones[c] - cnt[c] (vector sweep only)
  uint64_t rows_seen_ = 0;
  bool bitmap_mode_ = false;
  bool finished_ = false;
  double bitmap_seconds_ = 0.0;
  /// Non-OK once the progress callback cancelled the pass.
  Status stop_ = Status::OK();
  std::vector<std::vector<ColumnId>> tail_;
  SimilarityRuleSet out_;
  std::vector<ColumnId> scratch_row_;
  MergeScratch scratch_;
};

/// The phase driver of DMC-sim (identical phase + cutoff + sub-100%
/// phase); `replay(sink)` is invoked once per phase and must deliver the
/// same rows in the same order each time. `lhs_shard` and `stats` as in
/// StreamImplications.
template <typename Replay>
[[nodiscard]] StatusOr<SimilarityRuleSet> StreamSimilarities(
    ColumnId num_columns, const std::vector<uint32_t>& ones,
    uint64_t total_rows, const SimilarityMiningOptions& options,
    Replay&& replay, const std::vector<uint8_t>* lhs_shard = nullptr,
    MiningStats* stats = nullptr) {
  if (!(options.min_similarity > 0.0) || options.min_similarity > 1.0) {
    return InvalidArgumentError("min_similarity must be in (0, 1]");
  }
  const DmcPolicy& policy = options.policy;
  const ObserveContext& obs = policy.observe;
  const double minsim = options.min_similarity;
  const bool run_hundred = policy.hundred_percent_phase || minsim == 1.0;
  MiningStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  stats->kernel = KernelName(ResolveKernel(policy.kernel));
  MemoryTracker tracker;
  SimilarityRuleSet out;

  // One pass over the replay; see StreamImplications.
  const auto run_pass = [&](StreamingSimilarityPass::Config cfg,
                            const char* span_name, double* base_seconds,
                            double* bitmap_seconds, bool* bitmap_used,
                            size_t* bitmap_rows) -> Status {
    if (lhs_shard != nullptr) cfg.lhs_shard = *lhs_shard;
    cfg.policy = policy;
    cfg.tracker = &tracker;
    if (policy.record_history) {
      cfg.memory_history = &stats->memory_history;
      cfg.candidate_history = &stats->candidate_history;
    }
    StreamingSimilarityPass pass(std::move(cfg));
    ScopedSpan span(obs.trace, span_name, obs.trace_lane);
    Stopwatch sw;
    replay([&pass](std::span<const ColumnId> row) { pass.ProcessRow(row); });
    auto pairs = pass.Finish();
    *bitmap_seconds = pass.bitmap_seconds();
    *base_seconds = sw.ElapsedSeconds() - pass.bitmap_seconds();
    *bitmap_used = pass.bitmap_mode();
    if (bitmap_rows != nullptr) *bitmap_rows = pass.bitmap_rows();
    stats->peak_candidates =
        std::max(stats->peak_candidates, pass.peak_candidates());
    if (!pairs.ok()) return pairs.status();
    for (const auto& p : *pairs) out.Add(p);
    return Status::OK();
  };

  if (run_hundred) {
    // Step 2: identical columns. With minsim = 1 the pair budgets force
    // equal 1-counts and zero misses, which is exactly the paper's
    // restriction.
    StreamingSimilarityPass::Config cfg;
    cfg.num_columns = num_columns;
    cfg.ones = ones;
    cfg.total_rows = total_rows;
    cfg.min_similarity = 1.0;
    cfg.active.resize(num_columns);
    for (ColumnId c = 0; c < num_columns; ++c) cfg.active[c] = ones[c] > 0;
    cfg.emit_identical = true;
    cfg.bytes_per_entry = MissCounterTable::kEntryBytesIdOnly;
    cfg.phase = "hundred_phase";
    DMC_RETURN_IF_ERROR(run_pass(
        std::move(cfg), "sim/hundred_phase", &stats->hundred_base_seconds,
        &stats->hundred_bitmap_seconds, &stats->hundred_bitmap_triggered,
        nullptr));
    stats->rules_from_hundred_phase = out.size();
  }

  if (minsim < 1.0) {
    // Step 3 cutoff (sound form): keep a column iff it can appear in a
    // non-identical pair of similarity >= minsim.
    StreamingSimilarityPass::Config cfg;
    cfg.num_columns = num_columns;
    cfg.ones = ones;
    cfg.total_rows = total_rows;
    cfg.min_similarity = minsim;
    cfg.active.resize(num_columns);
    size_t cut = 0;
    for (ColumnId c = 0; c < num_columns; ++c) {
      const bool cut_off =
          run_hundred && !ColumnSurvivesSimilarityCutoff(ones[c], minsim);
      if (ones[c] > 0 && cut_off) ++cut;
      cfg.active[c] = ones[c] > 0 && !cut_off;
    }
    stats->columns_cut_off = cut;
    cfg.emit_identical = !run_hundred;
    cfg.bytes_per_entry = MissCounterTable::kEntryBytesWithCounters;
    cfg.phase = "sub_phase";
    const size_t before = out.size();
    DMC_RETURN_IF_ERROR(run_pass(
        std::move(cfg), "sim/sub_phase", &stats->sub_base_seconds,
        &stats->sub_bitmap_seconds, &stats->sub_bitmap_triggered,
        &stats->sub_bitmap_rows));
    stats->rules_from_sub_phase = out.size() - before;
  }

  out.Canonicalize();
  stats->peak_counter_bytes = tracker.peak_bytes();
  return out;
}

}  // namespace dmc

#endif  // DMC_CORE_STREAMING_SIM_H_
