// Sliding-window mining — the count-bounded convenience layer over the
// incremental miner, IncrementalMiner<Kind> (DESIGN §5.10).
//
// A windowed miner is an incremental miner plus a row budget: every
// AppendBatch that pushes the live row count past `window_rows`
// immediately evicts the overflow from the front, so rules() always
// reflects exactly the newest `window_rows` rows of the feed — the
// "last N rows" monitoring/CEP scenario of ROADMAP item 2. With
// window_rows == 0 the window is unbounded and the wrapper degrades to
// the plain incremental miner (EvictBatch stays available for explicit
// trims either way).
//
// Exactness is inherited: AppendBatch and EvictBatch are each
// byte-identical to a fresh mine of the resulting window contents
// (rules and memory accounting — see incr_miner.h), so any interleaving
// of the two is as well.
//
// Observability: each automatic slide records dmc.window.slides and
// dmc.window.rows_evicted on top of the inner miner's dmc.incr.* and
// dmc.incr.evict.* counters.

#ifndef DMC_INCR_WINDOW_MINER_H_
#define DMC_INCR_WINDOW_MINER_H_

#include <cstdint>

#include "incr/incr_miner.h"

namespace dmc {

/// Count-bounded sliding-window miner of one rule kind (ImplicationKind
/// or SimilarityKind): an IncrementalMiner<Kind> plus the row budget.
/// Both kinds are instantiated in window_miner.cc.
template <typename Kind>
class WindowedMiner {
 public:
  using Options = typename Kind::Options;
  using RuleSet = typename Kind::RuleSet;

  /// Empty window. `window_rows` == 0 means unbounded.
  explicit WindowedMiner(Options options, uint64_t window_rows = 0,
                         ColumnId num_columns = 0);

  /// Seeds from a batch mine of `initial`, then trims the overflow so
  /// the window invariant holds from the start.
  static StatusOr<WindowedMiner> FromBatchMine(const BinaryMatrix& initial,
                                               const Options& options,
                                               uint64_t window_rows = 0,
                                               MiningStats* stats = nullptr);

  /// Appends `delta`, then auto-evicts any overflow past window_rows().
  /// `evict_stats`, when non-null, receives the slide's breakdown
  /// (zeroed when no slide was needed).
  [[nodiscard]] Status AppendBatch(const BinaryMatrix& delta,
                                   IncrAppendStats* append_stats = nullptr,
                                   IncrEvictStats* evict_stats = nullptr);

  /// Explicitly evicts the oldest `k` rows (same contract as the inner
  /// miner's EvictBatch).
  [[nodiscard]] Status EvictBatch(uint64_t k,
                                  IncrEvictStats* stats = nullptr) {
    return miner_.EvictBatch(k, stats);
  }

  const RuleSet& rules() const { return miner_.rules(); }
  uint64_t num_rows() const { return miner_.num_rows(); }
  ColumnId num_columns() const { return miner_.num_columns(); }
  uint64_t window_rows() const { return window_rows_; }
  const IncrCumulativeStats& cumulative() const {
    return miner_.cumulative();
  }
  size_t MemoryBytes() const { return miner_.MemoryBytes(); }

 private:
  Status SlideToWindow(IncrEvictStats* stats);

  uint64_t window_rows_ = 0;
  IncrementalMiner<Kind> miner_;
};

extern template class WindowedMiner<ImplicationKind>;
extern template class WindowedMiner<SimilarityKind>;

using WindowedImplicationMiner = WindowedMiner<ImplicationKind>;
using WindowedSimilarityMiner = WindowedMiner<SimilarityKind>;

}  // namespace dmc

#endif  // DMC_INCR_WINDOW_MINER_H_
