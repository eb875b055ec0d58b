#include "incr/window_miner.h"

#include <utility>

#include "observe/metrics.h"

namespace dmc {

template <typename Kind>
WindowedMiner<Kind>::WindowedMiner(Options options, uint64_t window_rows,
                                   ColumnId num_columns)
    : window_rows_(window_rows), miner_(std::move(options), num_columns) {}

template <typename Kind>
StatusOr<WindowedMiner<Kind>> WindowedMiner<Kind>::FromBatchMine(
    const BinaryMatrix& initial, const Options& options,
    uint64_t window_rows, MiningStats* stats) {
  DMC_ASSIGN_OR_RETURN(
      IncrementalMiner<Kind> inner,
      IncrementalMiner<Kind>::FromBatchMine(initial, options, stats));
  WindowedMiner miner(options, window_rows, initial.num_columns());
  miner.miner_ = std::move(inner);
  DMC_RETURN_IF_ERROR(miner.SlideToWindow(nullptr));
  return miner;
}

template <typename Kind>
Status WindowedMiner<Kind>::SlideToWindow(IncrEvictStats* stats) {
  IncrEvictStats local;
  if (window_rows_ > 0 && miner_.num_rows() > window_rows_) {
    const uint64_t overflow = miner_.num_rows() - window_rows_;
    DMC_RETURN_IF_ERROR(miner_.EvictBatch(overflow, &local));
    MetricsRegistry* metrics = miner_.options().policy.observe.metrics;
    if (metrics != nullptr) {
      metrics->IncrCounter("dmc.window.slides");
      metrics->IncrCounter("dmc.window.rows_evicted", overflow);
    }
  }
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

template <typename Kind>
Status WindowedMiner<Kind>::AppendBatch(const BinaryMatrix& delta,
                                        IncrAppendStats* append_stats,
                                        IncrEvictStats* evict_stats) {
  DMC_RETURN_IF_ERROR(miner_.AppendBatch(delta, append_stats));
  return SlideToWindow(evict_stats);
}

template class WindowedMiner<ImplicationKind>;
template class WindowedMiner<SimilarityKind>;

}  // namespace dmc
