// The DMC scan for both rule kinds: DMC-base (Algorithm 3.1) with the
// DMC-bitmap switch (Algorithm 4.1), consuming rows one at a time — the
// form the paper ran against disk-resident data — and its phase driver.
// DMC-sim (Algorithm 5.1) is the same scan with a per-pair miss budget
// and the §5.1/§5.2 pruning, so one pass template, StreamingPass<Kind>,
// runs both. The rule kind (ImplicationKind or SimilarityKind) is a
// template argument and supplies only what differs:
//  * the column miss budget (no candidate joins c's list once cnt(c)
//    exceeds it) and the pair budget (the rule test itself);
//  * the three merge predicates of core/kernels.h;
//  * the vector entry sweep, and whether kSimd may run it;
//  * the record emitted, and which records are 100% rules;
//  * the step-3 cutoff test, and the equal-bitmap tail shortcut that
//    similarity takes at minsim = 1.
// The antecedent mask, progress and cancellation, the DMC-bitmap switch
// and tail, history sampling, the decided-set joiner walk, the
// stream-length check and the cutoff/100%-phase/sub-phase sequence exist
// once. The predicates stay per kind because they are the per-entry
// cost of the scan: each instantiation inlines its own, with no branch
// on the kind.
//
// Every miner runs this scan: MineImplications / MineSimilarities
// replay the in-memory matrix through StreamPhases (MineMatrix), the
// external miner replays its density-bucket spills, and every shard
// worker replays them under its antecedent mask.
//
// Each pass picks its merge kernel once, before its first row: with
// MergeKernel::kSimd, kernels::PreferVectorSweep decides between the
// block-typed vector sweep and the per-row mask merge from the row count,
// the total number of ones and the column count (the similarity sweep
// hard-codes the §5.2 predicates, so the pruning ablations keep the mask
// merge). Rules, peak_counter_bytes and the per-row histories are
// identical under every kernel and either choice
// (tests/kernel_parity_test.cc).

#ifndef DMC_CORE_STREAMING_PASS_H_
#define DMC_CORE_STREAMING_PASS_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
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

class PostingContainer;

/// DMC-imp: rules cj => ck, whose misses may not exceed cj's confidence
/// budget maxmis(cj) (§3.3).
class ImplicationKind {
 public:
  using Options = ImplicationMiningOptions;
  using Rule = ImplicationRule;
  using RuleSet = ImplicationRuleSet;
  /// Prefix of the span and metric names ("imp/sub_phase").
  static constexpr const char* kName = "imp";
  /// Failpoint site of every row a file replay delivers.
  static constexpr const char* kRowSite = "streaming.imp.row";
  static constexpr double Options::*kThreshold = &Options::min_confidence;
  static constexpr const char* kThresholdName = "min_confidence";
  static constexpr bool kEqualBitmapTail = false;

  static bool VectorSweepApplies(const DmcPolicy&) { return true; }
  /// Step 3 (sound form): useful below 100% iff it tolerates a miss.
  static bool SurvivesCutoff(uint32_t ones, double minconf) {
    return ColumnSurvivesConfidenceCutoff(ones, minconf);
  }

  ImplicationKind(const std::vector<uint32_t>& ones, double minconf,
                  const DmcPolicy& policy, bool vector_sweep);

  int64_t ColumnBudget(ColumnId c) const { return budget_[c]; }
  int64_t PairBudget(ColumnId c, ColumnId) const { return budget_[c]; }

  /// The merge predicates for cj's list on one row: every qualifying
  /// column joins, a hit never kills, a miss kills past the budget.
  struct ListPredicates {
    int64_t budget;
    bool AcceptNew(ColumnId) const { return true; }
    bool KeepOnHit(ColumnId, uint32_t) const { return true; }
    bool KeepOnMiss(ColumnId, uint32_t new_miss) const {
      return static_cast<int64_t>(new_miss) <= budget;
    }
  };
  ListPredicates ForList(ColumnId cj, uint32_t, const uint32_t*) const {
    return {budget_[cj]};
  }
  /// kernels::ImpVectorSweep over cj's list; returns the new size.
  size_t Sweep(ColumnId cj, const MissCounterTable::MutableList& list,
               const uint8_t* row_mask) const;
  /// Called once cnt(c) has grown by one; nothing to track.
  void Counted(ColumnId) {}

  /// The 100% rules: zero misses.
  static bool IsHundredPercent(const Rule& r) { return r.misses == 0; }
  Rule MakeRule(ColumnId lhs, ColumnId rhs, uint32_t misses) const {
    return Rule{lhs, rhs, ones_[lhs], misses};
  }

 private:
  const uint32_t* ones_;
  std::vector<int64_t> budget_;
};

/// DMC-sim: pairs (ci, ck) with ones(ci) <= ones(ck). With a = ones(ci),
/// b = ones(ck), Sim >= s iff mis(ci against ck) <= (a - s*b)/(1+s), so
/// the one-sided miss count kept on the sparser column decides the
/// similarity exactly. Column-density pruning (§5.1) skips pairs with
/// a/b < s outright; maximum-hits pruning (§5.2) deletes a candidate as
/// soon as its best achievable similarity falls below s, even on a hit.
class SimilarityKind {
 public:
  using Options = SimilarityMiningOptions;
  using Rule = SimilarityPair;
  using RuleSet = SimilarityRuleSet;
  static constexpr const char* kName = "sim";
  static constexpr const char* kRowSite = "streaming.sim.row";
  static constexpr double Options::*kThreshold = &Options::min_similarity;
  static constexpr const char* kThresholdName = "min_similarity";
  /// At minsim = 1 the tail finds identical pairs as equal bitmaps.
  static constexpr bool kEqualBitmapTail = true;

  /// The sweep hard-codes the §5.2 predicates.
  static bool VectorSweepApplies(const DmcPolicy& policy) {
    return policy.max_hits_pruning;
  }
  /// Step 3 (sound form): in a non-identical pair of similarity >= s.
  static bool SurvivesCutoff(uint32_t ones, double minsim) {
    return ColumnSurvivesSimilarityCutoff(ones, minsim);
  }

  SimilarityKind(const std::vector<uint32_t>& ones, double minsim,
                 const DmcPolicy& policy, bool vector_sweep);

  /// The loosest pair budget any partner of c offers (b = a).
  int64_t ColumnBudget(ColumnId c) const { return col_budget_[c]; }
  int64_t PairBudget(ColumnId c, ColumnId ck) const {
    return MaxMissesForSimilarity(ones_[c], ones_[ck], minsim_);
  }

  /// The merge predicates for cj's list on one row; `cnt` holds the
  /// pre-row counts and base_miss = cnt(cj).
  struct ListPredicates {
    const SimilarityKind* kind;
    const uint32_t* cnt;
    ColumnId cj;
    uint32_t base_miss;
    // §5.1 column-density pruning on joiners: a negative budget means
    // the ratio ones(cj)/ones(ck) is below s and the pair can never
    // qualify; a budget below cnt(cj) means it is dead on arrival. With
    // the pruning disabled (ablation) such pairs are still added and
    // left to the regular miss counting + flush guard, costing memory
    // but never changing the output. The max-hits test subsumes the
    // density test (its miss floor is >= base_miss), so each branch is
    // a single budget comparison.
    bool AcceptNew(ColumnId ck) const {
      if (kind->max_hits_pruning_) {
        return kind->SurvivesMaxHitsOnHit(cj, ck, base_miss, cnt);
      }
      return !kind->column_density_pruning_ ||
             kind->WithinPairBudget(kind->ones_[cj], ck, base_miss);
    }
    bool KeepOnHit(ColumnId ck, uint32_t miss) const {
      return !kind->max_hits_pruning_ ||
             kind->SurvivesMaxHitsOnHit(cj, ck, miss, cnt);
    }
    bool KeepOnMiss(ColumnId ck, uint32_t new_miss) const {
      if (kind->max_hits_pruning_) {
        return kind->SurvivesMaxHitsOnMiss(cj, ck, new_miss, cnt);
      }
      return kind->WithinPairBudget(kind->ones_[cj], ck, new_miss);
    }
  };
  ListPredicates ForList(ColumnId cj, uint32_t base_miss,
                         const uint32_t* cnt) const {
    return {this, cnt, cj, base_miss};
  }
  /// kernels::SimVectorSweep over cj's list; returns the new size.
  size_t Sweep(ColumnId cj, const MissCounterTable::MutableList& list,
               const uint8_t* row_mask) const;
  /// Keeps rem_ = ones - cnt current for the sweep.
  void Counted(ColumnId c) {
    if (vector_sweep_) --rem_[c];
  }

  /// The 100% records: identical pairs.
  static bool IsHundredPercent(const Rule& r) {
    return r.ones_a == r.ones_b && r.intersection == r.ones_a;
  }
  Rule MakeRule(ColumnId ci, ColumnId ck, uint32_t misses) const {
    return Rule{ci, ck, ones_[ci], ones_[ck], ones_[ci] - misses};
  }

 private:
  // mis <= MaxMissesForSimilarity(a, ones(ck), s) in multiply form:
  //   mis <= (a - s*b)/(1+s) + eps  <=>  (1+s)*mis <= a - s*b + (1+s)*eps,
  // with s*b = s_ones_[ck] precomputed per pass. Hoists the per-entry
  // floating divide (and floor) out of the merge predicates; the
  // kThresholdEpsilon guard band (thresholds.h) is orders of magnitude
  // wider than the rounding difference between the forms, so they
  // decide identically.
  bool WithinPairBudget(uint32_t a, ColumnId ck, int64_t mis) const {
    return one_plus_s_ * static_cast<double>(mis) <=
           static_cast<double>(a) - s_ones_[ck] + budget_eps_;
  }

  // §5.2 maximum-hits bound, evaluated while processing a row where cj
  // and ck are BOTH present (or ck is being added). Counters are
  // pre-row, so the remaining-1s terms still include the current row —
  // matching Example 5.1's arithmetic exactly.
  bool SurvivesMaxHitsOnHit(ColumnId cj, ColumnId ck, uint32_t miss,
                            const uint32_t* cnt) const {
    const int64_t rem_j = static_cast<int64_t>(ones_[cj]) - cnt[cj];
    const int64_t rem_k = static_cast<int64_t>(ones_[ck]) - cnt[ck];
    const int64_t hits_so_far = static_cast<int64_t>(cnt[cj]) - miss;
    const int64_t best_hits = hits_so_far + std::min(rem_j, rem_k);
    // best_hits >= MinHitsForSimilarity(a, b, s) <=> a - best_hits is
    // within the pair budget. Since best_hits <= a - miss, the floor
    // a - best_hits is >= miss, so this single test also subsumes the
    // plain pair-budget test of the current miss count.
    return WithinPairBudget(ones_[cj], ck,
                            static_cast<int64_t>(ones_[cj]) - best_hits);
  }

  // Same bound on a row where cj is present but ck is NOT (`new_miss`
  // already includes this row's miss). The current row cannot be a
  // future hit: it consumes one of cj's remaining 1s and none of ck's.
  bool SurvivesMaxHitsOnMiss(ColumnId cj, ColumnId ck, uint32_t new_miss,
                             const uint32_t* cnt) const {
    const int64_t rem_j = static_cast<int64_t>(ones_[cj]) - cnt[cj] - 1;
    const int64_t rem_k = static_cast<int64_t>(ones_[ck]) - cnt[ck];
    const int64_t hits_so_far =
        static_cast<int64_t>(cnt[cj]) - (static_cast<int64_t>(new_miss) - 1);
    const int64_t best_hits = hits_so_far + std::min(rem_j, rem_k);
    // The floor a - best_hits is >= new_miss here (rem_j excludes the
    // current row), so this subsumes the pair-budget test of new_miss.
    return WithinPairBudget(ones_[cj], ck,
                            static_cast<int64_t>(ones_[cj]) - best_hits);
  }

  const uint32_t* ones_;
  double minsim_;
  double one_plus_s_;
  double budget_eps_;
  bool column_density_pruning_;
  bool max_hits_pruning_;
  bool vector_sweep_;
  std::vector<int64_t> col_budget_;
  std::vector<double> s_ones_;  // minsim * ones[c]
  std::vector<int32_t> rem_;    // ones[c] - cnt[c] (vector sweep only)
};

/// One streamed pass of either phase. Construction needs the pass-1
/// statistics: exact ones(c) and the total number of rows that will be
/// streamed.
template <typename Kind>
class StreamingPass {
 public:
  struct Config {
    ColumnId num_columns = 0;
    /// Exact pass-1 counts; size num_columns.
    std::vector<uint32_t> ones;
    /// Rows that will be streamed (pass 1 row count).
    uint64_t total_rows = 0;
    /// minconf or minsim in (0, 1]. Running with 1.0 is exactly the 100%
    /// phase (zero-miss implications; for similarity, step 2 of
    /// Algorithm 5.1).
    double threshold = 1.0;
    /// The antecedents this pass mines: only columns with a nonzero
    /// entry own candidate lists and emit rules (rhs candidates still
    /// span every column of the row); an identical pair belongs to its
    /// lower-id column. Empty = all columns. A list is built from the
    /// rows, ones(c) and cnt(c) alone, so the union of the rule sets
    /// produced by a partition of the columns equals the unmasked result
    /// exactly — how StreamPhases splits the 100% and sub-100% passes,
    /// and the building block of the thread-parallel miner and of every
    /// multi-process shard worker.
    std::vector<uint8_t> antecedents;
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

  explicit StreamingPass(Config config);

  StreamingPass(const StreamingPass&) = delete;
  StreamingPass& operator=(const StreamingPass&) = delete;

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

  /// Peak live candidate entries of this pass.
  size_t peak_candidates() const { return table_.peak_entries(); }

  /// Row columns the vector add-merge has tested against a live list's
  /// decided set so far; each (antecedent, column) pair is tested there
  /// at most once. 0 on the row-mask side.
  uint64_t joiner_tests() const { return joiner_tests_; }

  /// Completes the pass (runs the bitmap phases if triggered) and
  /// returns all discovered rules. Fails if fewer rows were streamed
  /// than promised, or with Status(kCancelled) once the progress
  /// callback asked to cancel (later rows are counted, not processed).
  [[nodiscard]] StatusOr<typename Kind::RuleSet> Finish();

 private:
  bool Owns(ColumnId c) const {
    return config_.antecedents.empty() || config_.antecedents[c] != 0;
  }
  bool Qualifies(ColumnId ck, ColumnId cj) const {
    return config_.ones[ck] > config_.ones[cj] ||
           (config_.ones[ck] == config_.ones[cj] && ck > cj);
  }
  void MergeWithAdd(ColumnId cj, std::span<const ColumnId> row);
  void MergeMissOnly(ColumnId cj, std::span<const ColumnId> row);
  void VectorAddMerge(ColumnId cj, std::span<const ColumnId> row,
                      uint32_t base_miss);
  void FlushColumn(ColumnId cj);
  void RecordHistory();
  void RunBitmapPhases();
  void EmitEqualBitmapGroups(const std::vector<int32_t>& bm_index,
                             const std::vector<PostingContainer>& bitmaps);

  Config config_;
  MergeKernel kernel_;
  bool use_vector_;
  Kind kind_;
  MemoryTracker own_tracker_;
  MemoryTracker* tracker_;
  MissCounterTable table_;
  std::vector<uint32_t> cnt_;
  uint64_t rows_seen_ = 0;
  uint64_t joiner_tests_ = 0;
  bool bitmap_mode_ = false;
  bool finished_ = false;
  double bitmap_seconds_ = 0.0;
  /// Non-OK once the progress callback cancelled the pass.
  Status stop_ = Status::OK();
  std::vector<std::vector<ColumnId>> tail_;
  typename Kind::RuleSet out_;
  MergeScratch scratch_;
};

extern template class StreamingPass<ImplicationKind>;
extern template class StreamingPass<SimilarityKind>;

/// The phase driver of DMC-imp and DMC-sim: the step-3 column cutoff,
/// decided from ones(c) before any pass, then the 100% phase over the
/// cut antecedents (skipped when the caller owns none) and the sub-100%
/// phase over the rest, which emits their 100% rules itself — so a mine
/// that cuts nothing streams the rows once. Each phase is one streamed
/// pass over a row source that can be replayed: `replay(sink)` must
/// invoke `sink(std::span<const ColumnId>)` once per row, in the same
/// order on every call. `lhs_shard` (optional) restricts antecedents to
/// the marked columns; the union over a partition of the columns is
/// exactly the unsharded rule set. `stats` (optional) receives the phase
/// times (0 for a phase that did not run), the exact counter and
/// candidate peaks, the bitmap switches, the cutoff, the rule split and
/// the kernel — and, with policy.record_history, the per-row histories;
/// the caller owns prescan_seconds and total_seconds.
template <typename Kind, typename Replay>
[[nodiscard]] StatusOr<typename Kind::RuleSet> StreamPhases(
    ColumnId num_columns, const std::vector<uint32_t>& ones,
    uint64_t total_rows, const typename Kind::Options& options,
    Replay&& replay, const std::vector<uint8_t>* lhs_shard = nullptr,
    MiningStats* stats = nullptr) {
  const double threshold = options.*Kind::kThreshold;
  if (!(threshold > 0.0) || threshold > 1.0) {
    return InvalidArgumentError(std::string(Kind::kThresholdName) +
                                " must be in (0, 1]");
  }
  const DmcPolicy& policy = options.policy;
  const ObserveContext& obs = policy.observe;
  const bool run_hundred = policy.hundred_percent_phase || threshold == 1.0;
  MiningStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  stats->kernel = KernelName(ResolveKernel(policy.kernel));
  MemoryTracker tracker;
  typename Kind::RuleSet out;
  using Pass = StreamingPass<Kind>;

  // Step 3 cutoff (sound form): a column is cut iff it fits in no rule
  // below 100% (at threshold 1, every column). A cut column stays in the
  // rows, but only the 100% pass mines it as an antecedent: no cut column
  // ever joins an uncut antecedent's list (DESIGN §2).
  std::vector<uint8_t> hundred_lhs(num_columns), sub_lhs(num_columns);
  size_t cut = 0;
  bool hundred_owns_any = false;
  for (ColumnId c = 0; c < num_columns; ++c) {
    const bool cut_off =
        ones[c] > 0 &&
        (threshold == 1.0 ||
         (run_hundred && !Kind::SurvivesCutoff(ones[c], threshold)));
    const bool owned = lhs_shard == nullptr || (*lhs_shard)[c] != 0;
    cut += cut_off;
    hundred_lhs[c] = cut_off && owned;
    sub_lhs[c] = !cut_off && owned;
    hundred_owns_any = hundred_owns_any || hundred_lhs[c] != 0;
  }
  if (threshold < 1.0) stats->columns_cut_off = cut;

  const auto make_config = [&](double pass_threshold, const char* phase,
                               std::vector<uint8_t> antecedents) {
    typename Pass::Config cfg;
    cfg.num_columns = num_columns;
    cfg.ones = ones;
    cfg.total_rows = total_rows;
    cfg.threshold = pass_threshold;
    cfg.antecedents = std::move(antecedents);
    cfg.policy = policy;
    cfg.phase = phase;
    cfg.tracker = &tracker;
    if (policy.record_history) {
      cfg.memory_history = &stats->memory_history;
      cfg.candidate_history = &stats->candidate_history;
    }
    return cfg;
  };
  // One pass over the replay; the phase's times, peak and bitmap rows
  // land in `stats` through the out-parameters.
  const auto run_pass = [&](typename Pass::Config cfg, double* base_seconds,
                            double* bitmap_seconds, bool* bitmap_used,
                            size_t* bitmap_rows) -> Status {
    const std::string span_name = std::string(Kind::kName) + "/" + cfg.phase;
    Pass pass(std::move(cfg));
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

  if (threshold == 1.0 || hundred_owns_any) {
    // Step 2 at threshold 1: every column budget is 0, and for
    // similarity the pair budgets force equal 1-counts and zero misses,
    // which is exactly the paper's restriction.
    typename Pass::Config cfg =
        make_config(1.0, "hundred_phase", std::move(hundred_lhs));
    cfg.bytes_per_entry = MissCounterTable::kEntryBytesIdOnly;
    DMC_RETURN_IF_ERROR(run_pass(std::move(cfg), &stats->hundred_base_seconds,
                                 &stats->hundred_bitmap_seconds,
                                 &stats->hundred_bitmap_triggered, nullptr));
  }
  if (threshold < 1.0) {
    DMC_RETURN_IF_ERROR(
        run_pass(make_config(threshold, "sub_phase", std::move(sub_lhs)),
                 &stats->sub_base_seconds, &stats->sub_bitmap_seconds,
                 &stats->sub_bitmap_triggered, &stats->sub_bitmap_rows));
  }

  {
    ScopedSpan span(obs.trace, std::string(Kind::kName) + "/canonicalize",
                    obs.trace_lane);
    out.Canonicalize();
  }
  const size_t hundred_rules =
      run_hundred ? static_cast<size_t>(std::count_if(
                        out.begin(), out.end(), &Kind::IsHundredPercent))
                  : 0;
  stats->rules_from_hundred_phase = hundred_rules;
  stats->rules_from_sub_phase = out.size() - hundred_rules;
  stats->peak_counter_bytes = tracker.peak_bytes();
  return out;
}

/// The in-memory miners (MineImplications, MineSimilarities, and with an
/// `lhs_shard` mask each thread of the parallel miners): the pre-scan
/// row order of options.policy, then the matrix rows replayed through
/// StreamPhases. Resets and fills `stats` (optional) and records it to
/// the metrics registry under Kind::kName.
template <typename Kind>
[[nodiscard]] StatusOr<typename Kind::RuleSet> MineMatrix(
    const BinaryMatrix& matrix, const typename Kind::Options& options,
    const std::vector<uint8_t>* lhs_shard, MiningStats* stats);

}  // namespace dmc

#endif  // DMC_CORE_STREAMING_PASS_H_
