#include "core/dmc_sim.h"

#include "core/streaming_pass.h"

namespace dmc {

StatusOr<SimilarityRuleSet> MineSimilarities(
    const BinaryMatrix& matrix, const SimilarityMiningOptions& options,
    MiningStats* stats) {
  return MineMatrix<SimilarityKind>(matrix, options, nullptr, stats);
}

}  // namespace dmc
