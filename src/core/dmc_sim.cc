#include "core/dmc_sim.h"

#include "core/streaming_pass.h"

namespace dmc {

StatusOr<SimilarityRuleSet> MineSimilarities(
    const BinaryMatrix& matrix, const SimilarityMiningOptions& options,
    MiningStats* stats) {
  return MineMatrix<SimilarityKind>(matrix, options, nullptr, stats);
}

StatusOr<SimilarityRuleSet> MineSimilaritiesSharded(
    const BinaryMatrix& matrix, const SimilarityMiningOptions& options,
    const std::vector<uint8_t>& lhs_shard, MiningStats* stats) {
  return MineMatrix<SimilarityKind>(matrix, options, &lhs_shard, stats);
}

}  // namespace dmc
