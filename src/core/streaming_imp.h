// The DMC-imp scan: DMC-base (Algorithm 3.1) with the DMC-bitmap switch
// (Algorithm 4.1), consuming rows one at a time — the form the paper ran
// against disk-resident data, and the only implication scan loop in the
// repo. MineImplications (dmc_imp.h) replays the in-memory matrix through
// StreamImplications, the external miner replays its density-bucket
// files, and every shard worker replays them under its antecedent mask.
//
// Each pass picks its merge kernel once, before its first row: with
// MergeKernel::kSimd, kernels::PreferVectorSweep decides between the
// block-typed vector sweep and the per-row mask merge from the row count,
// the total number of ones and the column count. Rules,
// peak_counter_bytes and the per-row histories are identical under every
// kernel and either choice (tests/kernel_parity_test.cc).

#ifndef DMC_CORE_STREAMING_IMP_H_
#define DMC_CORE_STREAMING_IMP_H_

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

/// One streamed pass (either the 100%-rule phase or the sub-100% phase).
/// Construction needs the pass-1 statistics: exact ones(c) and the total
/// number of rows that will be streamed.
class StreamingImplicationPass {
 public:
  struct Config {
    ColumnId num_columns = 0;
    /// Exact pass-1 counts; size num_columns.
    std::vector<uint32_t> ones;
    /// Rows that will be streamed (pass 1 row count).
    uint64_t total_rows = 0;
    /// Per-column miss budgets (MaxMissesForConfidence, or all zero for
    /// the 100% phase).
    std::vector<int64_t> max_misses;
    /// Active columns; empty = all active.
    std::vector<uint8_t> active;
    /// Antecedent shard: only columns with a nonzero entry own candidate
    /// lists and emit rules (rhs candidates still span every active
    /// column). Empty = all columns. The union of the rule sets produced
    /// by a partition of the columns equals the unsharded result exactly
    /// — the building block of the thread-parallel miner and of every
    /// multi-process shard worker.
    std::vector<uint8_t> lhs_shard;
    bool emit_zero_miss = true;
    size_t bytes_per_entry = MissCounterTable::kEntryBytesWithCounters;
    /// Bitmap-fallback policy (row_order is ignored — the caller owns
    /// the order of the stream). Carries the ObserveContext hooks.
    DmcPolicy policy;
    /// Phase label for progress updates and trace spans
    /// ("hundred_phase", "sub_phase").
    const char* phase = "pass";
    /// Counter-array accounting; null = a tracker owned by the pass.
    /// Sharing one tracker across the phases composes their peaks.
    MemoryTracker* tracker = nullptr;
    /// Optional per-row sinks (Fig. 3 / Example 3.1 traces): the
    /// intra-row peak of counter bytes and of live candidates, one
    /// sample per row scanned before any DMC-bitmap switch.
    std::vector<size_t>* memory_history = nullptr;
    std::vector<size_t>* candidate_history = nullptr;
  };

  explicit StreamingImplicationPass(Config config);

  StreamingImplicationPass(const StreamingImplicationPass&) = delete;
  StreamingImplicationPass& operator=(const StreamingImplicationPass&) =
      delete;

  /// Feeds the next row (sorted, deduplicated column ids — rows from
  /// BinaryMatrix or ReadMatrixText already satisfy this).
  void ProcessRow(std::span<const ColumnId> row);

  /// Rows consumed so far.
  uint64_t rows_seen() const { return rows_seen_; }

  /// Whether the pass has switched to tail-collection (DMC-bitmap) mode.
  bool bitmap_mode() const { return bitmap_mode_; }

  /// Rows collected for the DMC-bitmap tail.
  size_t bitmap_rows() const { return tail_.size(); }

  /// Seconds Finish() spent in the DMC-bitmap phases.
  double bitmap_seconds() const { return bitmap_seconds_; }

  /// Whether the progress callback asked to cancel; once set, further
  /// rows are counted but not processed and Finish() returns
  /// Status(kCancelled).
  bool cancelled() const { return !stop_.ok(); }

  /// Current counter-array bytes.
  size_t counter_bytes() const { return table_.bytes(); }

  /// Peak counter bytes observed by the tracker (across every pass that
  /// shares it).
  size_t peak_counter_bytes() const { return tracker_->peak_bytes(); }

  /// Peak live candidate entries of this pass.
  size_t peak_candidates() const { return table_.peak_entries(); }

  /// Completes the pass (runs the bitmap phases if triggered) and
  /// returns all discovered rules. Fails if fewer rows were streamed
  /// than promised.
  [[nodiscard]] StatusOr<ImplicationRuleSet> Finish();

 private:
  bool LhsOk(ColumnId c) const {
    return config_.lhs_shard.empty() || config_.lhs_shard[c] != 0;
  }
  bool ActiveOk(ColumnId c) const {
    return config_.active.empty() || config_.active[c] != 0;
  }
  bool Qualifies(ColumnId ck, ColumnId cj) const;
  std::span<const ColumnId> FilteredRow(std::span<const ColumnId> row);
  void MergeWithAdd(ColumnId cj, std::span<const ColumnId> row);
  void MergeMissOnly(ColumnId cj, std::span<const ColumnId> row);
  void VectorAddMerge(ColumnId cj, std::span<const ColumnId> row,
                      uint32_t base_miss, uint32_t budget);
  void FlushColumn(ColumnId cj);
  void EmitRule(ColumnId lhs, ColumnId rhs, uint32_t misses);
  void RecordHistory();
  void RunBitmapPhases();

  Config config_;
  bool all_active_ = true;
  MergeKernel kernel_;
  bool use_vector_ = false;
  MemoryTracker own_tracker_;
  MemoryTracker* tracker_;
  MissCounterTable table_;
  std::vector<uint32_t> cnt_;
  uint64_t rows_seen_ = 0;
  bool bitmap_mode_ = false;
  bool finished_ = false;
  double bitmap_seconds_ = 0.0;
  /// Non-OK once the progress callback cancelled the pass.
  Status stop_ = Status::OK();
  std::vector<std::vector<ColumnId>> tail_;
  ImplicationRuleSet out_;
  std::vector<ColumnId> scratch_row_;
  MergeScratch scratch_;
};

/// The phase driver of DMC-imp: the 100% phase, the column cutoff and
/// the sub-100% phase, each as one streamed pass over a row source that
/// can be replayed. The functor `replay(sink)` must invoke
/// `sink(std::span<const ColumnId>)` once per row, in the same order on
/// every call; it is invoked once per phase (the paper's implementation
/// likewise re-reads the bucketed data for each phase). `lhs_shard`
/// (optional) restricts antecedents to the marked columns; the union
/// over a partition of the columns is exactly the unsharded rule set.
/// `stats` (optional) receives the phase times, the exact counter and
/// candidate peaks, the bitmap switches, the cutoff and the kernel —
/// and, with policy.record_history, the per-row histories; the caller
/// owns prescan_seconds and total_seconds.
template <typename Replay>
[[nodiscard]] StatusOr<ImplicationRuleSet> StreamImplications(
    ColumnId num_columns, const std::vector<uint32_t>& ones,
    uint64_t total_rows, const ImplicationMiningOptions& options,
    Replay&& replay, const std::vector<uint8_t>* lhs_shard = nullptr,
    MiningStats* stats = nullptr) {
  if (!(options.min_confidence > 0.0) || options.min_confidence > 1.0) {
    return InvalidArgumentError("min_confidence must be in (0, 1]");
  }
  const DmcPolicy& policy = options.policy;
  const ObserveContext& obs = policy.observe;
  const double minconf = options.min_confidence;
  const bool run_hundred = policy.hundred_percent_phase || minconf == 1.0;
  MiningStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  stats->kernel = KernelName(ResolveKernel(policy.kernel));
  MemoryTracker tracker;
  ImplicationRuleSet out;

  // One pass over the replay; the phase's times, peak and bitmap rows
  // land in `stats` through the out-parameters.
  const auto run_pass = [&](StreamingImplicationPass::Config cfg,
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
    StreamingImplicationPass pass(std::move(cfg));
    ScopedSpan span(obs.trace, span_name, obs.trace_lane);
    Stopwatch sw;
    replay([&pass](std::span<const ColumnId> row) { pass.ProcessRow(row); });
    auto rules = pass.Finish();
    *bitmap_seconds = pass.bitmap_seconds();
    *base_seconds = sw.ElapsedSeconds() - pass.bitmap_seconds();
    *bitmap_used = pass.bitmap_mode();
    if (bitmap_rows != nullptr) *bitmap_rows = pass.bitmap_rows();
    stats->peak_candidates =
        std::max(stats->peak_candidates, pass.peak_candidates());
    if (!rules.ok()) return rules.status();
    for (const auto& r : *rules) out.Add(r);
    return Status::OK();
  };

  if (run_hundred) {
    StreamingImplicationPass::Config cfg;
    cfg.num_columns = num_columns;
    cfg.ones = ones;
    cfg.total_rows = total_rows;
    cfg.max_misses.assign(num_columns, 0);
    cfg.active.resize(num_columns);
    for (ColumnId c = 0; c < num_columns; ++c) cfg.active[c] = ones[c] > 0;
    cfg.emit_zero_miss = true;
    cfg.bytes_per_entry = MissCounterTable::kEntryBytesIdOnly;
    cfg.phase = "hundred_phase";
    DMC_RETURN_IF_ERROR(run_pass(
        std::move(cfg), "imp/hundred_phase", &stats->hundred_base_seconds,
        &stats->hundred_bitmap_seconds, &stats->hundred_bitmap_triggered,
        nullptr));
    stats->rules_from_hundred_phase = out.size();
  }

  if (minconf < 1.0) {
    StreamingImplicationPass::Config cfg;
    cfg.num_columns = num_columns;
    cfg.ones = ones;
    cfg.total_rows = total_rows;
    cfg.max_misses.resize(num_columns);
    cfg.active.resize(num_columns);
    size_t cut = 0;
    for (ColumnId c = 0; c < num_columns; ++c) {
      cfg.max_misses[c] = MaxMissesForConfidence(ones[c], minconf);
      const bool cut_off =
          run_hundred && !ColumnSurvivesConfidenceCutoff(ones[c], minconf);
      if (ones[c] > 0 && cut_off) ++cut;
      cfg.active[c] = ones[c] > 0 && !cut_off;
    }
    stats->columns_cut_off = cut;
    cfg.emit_zero_miss = !run_hundred;
    cfg.bytes_per_entry = MissCounterTable::kEntryBytesWithCounters;
    cfg.phase = "sub_phase";
    const size_t before = out.size();
    DMC_RETURN_IF_ERROR(run_pass(
        std::move(cfg), "imp/sub_phase", &stats->sub_base_seconds,
        &stats->sub_bitmap_seconds, &stats->sub_bitmap_triggered,
        &stats->sub_bitmap_rows));
    stats->rules_from_sub_phase = out.size() - before;
  }

  out.Canonicalize();
  stats->peak_counter_bytes = tracker.peak_bytes();
  return out;
}

}  // namespace dmc

#endif  // DMC_CORE_STREAMING_IMP_H_
