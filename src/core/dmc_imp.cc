#include "core/dmc_imp.h"

#include "core/streaming_imp.h"
#include "matrix/row_order.h"
#include "observe/stats_export.h"
#include "observe/trace.h"
#include "util/stopwatch.h"

namespace dmc {

std::vector<RowId> MakeRowOrder(const BinaryMatrix& m,
                                RowOrderPolicy policy) {
  switch (policy) {
    case RowOrderPolicy::kIdentity:
      return IdentityOrder(m);
    case RowOrderPolicy::kDensityBuckets:
      return DensityBucketOrder(m).order;
    case RowOrderPolicy::kExactSort:
      return SortedByDensityOrder(m);
  }
  return IdentityOrder(m);
}

namespace {

StatusOr<ImplicationRuleSet> MineImplicationsImpl(
    const BinaryMatrix& matrix, const ImplicationMiningOptions& options,
    const std::vector<uint8_t>* lhs_shard, MiningStats* stats) {
  MiningStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = MiningStats{};
  const ObserveContext& obs = options.policy.observe;

  Stopwatch total_sw;
  // Pre-scan: in the two-pass disk setting this is the first scan (count
  // ones(c), bucket rows by density); here ones(c) comes with the matrix
  // and the pre-scan cost is the order construction.
  std::vector<RowId> order;
  {
    ScopedSpan span(obs.trace, "imp/prescan", obs.trace_lane);
    order = MakeRowOrder(matrix, options.policy.row_order);
  }
  stats->prescan_seconds = total_sw.ElapsedSeconds();

  // The second scan: the same streamed passes the external and sharded
  // miners run, fed from memory.
  auto rules = StreamImplications(
      matrix.num_columns(), matrix.column_ones(), matrix.num_rows(), options,
      [&](auto&& sink) {
        for (const RowId r : order) sink(matrix.Row(r));
      },
      lhs_shard, stats);
  if (!rules.ok()) return rules.status();
  stats->total_seconds = total_sw.ElapsedSeconds();
  RecordToRegistry(obs.metrics, "imp", *stats);
  return rules;
}

}  // namespace

StatusOr<ImplicationRuleSet> MineImplications(
    const BinaryMatrix& matrix, const ImplicationMiningOptions& options,
    MiningStats* stats) {
  return MineImplicationsImpl(matrix, options, nullptr, stats);
}

StatusOr<ImplicationRuleSet> MineImplicationsSharded(
    const BinaryMatrix& matrix, const ImplicationMiningOptions& options,
    const std::vector<uint8_t>& lhs_shard, MiningStats* stats) {
  if (lhs_shard.size() != matrix.num_columns()) {
    return InvalidArgumentError("lhs_shard size must match column count");
  }
  return MineImplicationsImpl(matrix, options, &lhs_shard, stats);
}

}  // namespace dmc
