// Incremental append-batch mining (DESIGN §5.5).
//
// The paper's miss-counting invariant — miss(c_i => c_j) only grows as
// rows arrive, and a candidate dies permanently once it exceeds its
// budget — makes the mined rule set *incrementally maintainable*: after
// a batch mine, keep (a) the column postings (incr/postings.h) and
// (b) the current rule set with its exact counts, and an appended batch
// of rows can be absorbed without re-reading the old data.
//
// AppendBatch(delta) runs the paper's two-pass structure per batch:
//
//   1. UPDATE — every currently-held rule's unordered column pair gains
//      exactly |delta rows where both columns are 1| intersections,
//      computed by intersecting the two posting-list *suffixes* that the
//      batch appended (the stored rule already carries the exact counts
//      at the previous boundary). The pair is re-oriented sparser-first
//      under the new 1-counts and re-tested against the exact integer
//      budget (core/thresholds.h); a pair over budget is killed on the
//      spot and never resurrected.
//   2. REGENERATE — rules that newly clear the threshold can only come
//      from pairs that co-occur in the delta (proof below), so one pass
//      enumerates the 2-subsets of the delta rows, deduplicates them,
//      skips the pairs step 1 already decided, and evaluates the rest
//      exactly against the full posting lists. The §5.1 density screen
//      (a negative pair budget, which only DMC-sim's can be) and the
//      miss-monotonicity screen (old hits plus delta co-occurrences
//      cannot reach the new hit floor) prune hopeless pairs before any
//      full-list intersection is computed.
//
// Why the delta pass is exact (miss monotonicity): consider an unordered
// pair at two boundaries t < t'. Appending one row changes the pair's
// state in only three ways — a row where neither column is 1 changes
// nothing; a row where exactly one is 1 adds a miss for one direction
// (and shrinks Jaccard: the union grows, the intersection does not); a
// row where both are 1 is the only event that adds an intersection. For
// implications the sparser-first direction needs at least
// g(n) = n - floor((1-minconf)*n + eps) hits with n = min(ones_i,
// ones_j), and g is non-decreasing in n while n itself never shrinks —
// so a pair failing at t (I_t < g(n_t)) and holding at t'
// (I_t' >= g(n_t') >= g(n_t)) must have I_t' > I_t: it co-occurred in
// the delta. For similarity the same holds directly on Jaccard, which
// only increases via co-occurrence rows. Hence step 2's candidate set
// (pairs co-occurring in the delta) covers every possible resurrection,
// and both steps evaluate the exact predicate — the final rule set is
// byte-identical to a fresh batch mine of the concatenated matrix
// (tests/incr_differential_test.cc proves this property).
//
// EvictBatch(k) extends the invariant to deletions with the mirror-image
// two-pass structure: every held rule's counts lose exactly the evicted
// prefix's contribution (|{rows < k where both columns are 1}|, counted
// from the posting prefixes), and the regeneration pass only needs pairs
// with at least one evicted one — evicting a row where neither or both
// columns are 1 can never flip a failing pair to passing (the dual of
// miss monotonicity; proof sketch in DESIGN §5.10). All decisions are
// made against the pre-trim postings, then the prefix is trimmed and the
// surviving row ids renumbered down by k, so the state is byte-identical
// — rules and memory accounting — to a fresh mine of the window contents
// (tests/window_differential_test.cc proves this property).
//
// Sliding window (DESIGN §5.10): a miner built with window_rows > 0
// holds at most that many rows. Every AppendBatch that pushes the row
// count past the budget evicts the overflow from the front, and
// FromBatchMine trims the seed the same way, so rules() always reflects
// exactly the newest window_rows rows of the feed — the "last N rows"
// monitoring scenario. Each such slide is one EvictBatch, so it is exact
// too, and it also records dmc.window.slides and dmc.window.rows_evicted.
// With window_rows == 0 nothing slides; EvictBatch stays available for
// explicit trims either way.
//
// Determinism: all state lives in sorted vectors (postings, canonical
// rule sets, sorted/uniqued pair keys) — no hash containers — so equal
// inputs give byte-identical outputs, run to run.

#ifndef DMC_INCR_INCR_MINER_H_
#define DMC_INCR_INCR_MINER_H_

#include <cstdint>

#include "core/mining_stats.h"
#include "core/streaming_pass.h"
#include "incr/postings.h"
#include "matrix/binary_matrix.h"
#include "rules/rule_set.h"
#include "util/status.h"
#include "util/statusor.h"

namespace dmc {

/// Per-AppendBatch breakdown.
struct IncrAppendStats {
  uint64_t rows_appended = 0;
  /// Previously-held rules re-evaluated by the update pass.
  uint64_t rules_updated = 0;
  /// Rules dropped because the batch pushed them over budget.
  uint64_t candidates_killed = 0;
  /// Rules added by the regeneration pass (pairs that newly clear the
  /// threshold thanks to delta co-occurrences).
  uint64_t candidates_revived = 0;
  /// Distinct co-occurring delta pairs the regeneration pass examined.
  uint64_t delta_pairs_examined = 0;
  double seconds = 0.0;
};

/// Per-EvictBatch breakdown (the append stats' mirror image).
struct IncrEvictStats {
  uint64_t rows_evicted = 0;
  /// Previously-held rules re-decided by the eviction update pass.
  uint64_t rules_updated = 0;
  /// Rules dropped because eviction took their last co-occurrences (or
  /// tightened the sparser column under them).
  uint64_t candidates_killed = 0;
  /// Pairs resurrected because eviction removed misses faster than hits
  /// (the dual of the append pass's revivals).
  uint64_t candidates_regenerated = 0;
  /// Candidate pairs the eviction regeneration pass examined.
  uint64_t regen_pairs_examined = 0;
  double seconds = 0.0;
};

/// Running totals across every AppendBatch/EvictBatch since
/// construction. Evict-side kills and regenerations fold into
/// candidates_killed / candidates_revived: they mutate the same
/// candidate state.
struct IncrCumulativeStats {
  uint64_t batches = 0;
  uint64_t rows_total = 0;
  uint64_t candidates_killed = 0;
  uint64_t candidates_revived = 0;
  uint64_t evict_batches = 0;
  uint64_t rows_evicted = 0;
};

/// Incrementally maintained miner of one rule kind (ImplicationKind or
/// SimilarityKind, core/streaming_pass.h). Construct empty (or seed from
/// a batch mine), then AppendBatch row deltas and EvictBatch prefixes;
/// rules() is always exactly the batch miner of that kind
/// (MineImplications / MineSimilarities) over the rows held.
///
/// The kind is a template argument and supplies only the exact pair
/// budget (the confidence budget, read from a per-batch table, or the
/// Jaccard budget), the record built and the pair and hit count read
/// back from a held record. Validation, failpoints, spans, metrics, the
/// suffix-bitmap/posting-merge choice, the update and regeneration
/// passes and their monotonicity screens exist once; both kinds are
/// instantiated in incr_miner.cc.
template <typename Kind>
class IncrementalMiner {
 public:
  using Options = typename Kind::Options;
  using RuleSet = typename Kind::RuleSet;

  /// Empty state: zero rows, no rules. `window_rows` is the row budget
  /// (0: unbounded). `num_columns` may be 0 — the column count grows to
  /// fit the widest appended batch.
  explicit IncrementalMiner(Options options, uint64_t window_rows = 0,
                            ColumnId num_columns = 0);

  /// Seeds from a batch mine of `initial` (the snapshot-after-batch-mine
  /// entry point): runs the batch miner with `options`, keeps its rule
  /// set as the live candidate state and builds the postings in one row
  /// sweep, then slides the seed into the `window_rows` budget.
  /// `stats`, when non-null, receives the batch engine's breakdown.
  static StatusOr<IncrementalMiner> FromBatchMine(const BinaryMatrix& initial,
                                                  const Options& options,
                                                  uint64_t window_rows = 0,
                                                  MiningStats* stats = nullptr);

  /// Absorbs `delta` (its rows become rows [num_rows(),
  /// num_rows() + delta rows)), then evicts any overflow past the row
  /// budget. On error (invalid options, injected fault at site
  /// "incr.append") the state is untouched. `slide`, when non-null,
  /// receives the slide's breakdown (zeroed when nothing slid).
  /// Observability: spans incr/append_batch, incr/update, incr/regen and
  /// counters dmc.incr.batches / dmc.incr.rows_appended /
  /// dmc.incr.candidates_killed / dmc.incr.candidates_revived flow
  /// through options.policy.observe.
  [[nodiscard]] Status AppendBatch(const BinaryMatrix& delta,
                                   IncrAppendStats* stats = nullptr,
                                   IncrEvictStats* slide = nullptr);

  /// Evicts the oldest `k` rows (the window's prefix) and renumbers the
  /// survivors, leaving rules() exactly the batch mine of the surviving
  /// rows. k == 0 is a no-op; k > num_rows() is an error and, like an
  /// injected fault at site "incr.evict", leaves the state untouched.
  /// The column count is sticky (never shrinks). Observability: spans
  /// incr/evict_batch, incr/evict_update, incr/evict_regen and counters
  /// dmc.incr.evict.*.
  [[nodiscard]] Status EvictBatch(uint64_t k,
                                  IncrEvictStats* stats = nullptr);

  /// The current rule set, canonical, with exact counts.
  const RuleSet& rules() const { return rules_; }

  uint64_t num_rows() const { return postings_.num_rows(); }
  ColumnId num_columns() const { return postings_.num_columns(); }
  const IncrCumulativeStats& cumulative() const { return cumulative_; }
  /// Heap bytes of the persistent counting state.
  size_t MemoryBytes() const { return postings_.MemoryBytes(); }

 private:
  /// AppendBatch without the slide.
  Status Absorb(const BinaryMatrix& delta, IncrAppendStats* stats);
  /// Evicts the overflow past the row budget from the front.
  Status SlideToWindow(IncrEvictStats* stats);

  Options options_;
  uint64_t window_rows_ = 0;
  ColumnPostings postings_;
  RuleSet rules_;
  IncrCumulativeStats cumulative_;
};

extern template class IncrementalMiner<ImplicationKind>;
extern template class IncrementalMiner<SimilarityKind>;

using IncrementalImplicationMiner = IncrementalMiner<ImplicationKind>;
using IncrementalSimilarityMiner = IncrementalMiner<SimilarityKind>;

}  // namespace dmc

#endif  // DMC_INCR_INCR_MINER_H_
