#include "core/dmc_sim.h"

#include "core/dmc_imp.h"
#include "core/streaming_sim.h"
#include "observe/stats_export.h"
#include "observe/trace.h"
#include "util/stopwatch.h"

namespace dmc {

namespace {

StatusOr<SimilarityRuleSet> MineSimilaritiesImpl(
    const BinaryMatrix& matrix, const SimilarityMiningOptions& options,
    const std::vector<uint8_t>* lhs_shard, MiningStats* stats) {
  MiningStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = MiningStats{};
  const ObserveContext& obs = options.policy.observe;

  Stopwatch total_sw;
  std::vector<RowId> order;
  {
    ScopedSpan span(obs.trace, "sim/prescan", obs.trace_lane);
    order = MakeRowOrder(matrix, options.policy.row_order);
  }
  stats->prescan_seconds = total_sw.ElapsedSeconds();

  auto pairs = StreamSimilarities(
      matrix.num_columns(), matrix.column_ones(), matrix.num_rows(), options,
      [&](auto&& sink) {
        for (const RowId r : order) sink(matrix.Row(r));
      },
      lhs_shard, stats);
  if (!pairs.ok()) return pairs.status();
  stats->total_seconds = total_sw.ElapsedSeconds();
  RecordToRegistry(obs.metrics, "sim", *stats);
  return pairs;
}

}  // namespace

StatusOr<SimilarityRuleSet> MineSimilarities(
    const BinaryMatrix& matrix, const SimilarityMiningOptions& options,
    MiningStats* stats) {
  return MineSimilaritiesImpl(matrix, options, nullptr, stats);
}

StatusOr<SimilarityRuleSet> MineSimilaritiesSharded(
    const BinaryMatrix& matrix, const SimilarityMiningOptions& options,
    const std::vector<uint8_t>& lhs_shard, MiningStats* stats) {
  if (lhs_shard.size() != matrix.num_columns()) {
    return InvalidArgumentError("lhs_shard size must match column count");
  }
  return MineSimilaritiesImpl(matrix, options, &lhs_shard, stats);
}

}  // namespace dmc
