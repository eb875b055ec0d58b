// DMC-sim (Algorithm 5.1): the complete similarity-pair miner.
//
// Pipeline: pre-scan -> identical-column phase (minsim = 1, which makes
// the pair budgets exactly the paper's step 2) -> column cutoff (sound
// form of step 3) -> sub-100% phase with column-density and maximum-hits
// pruning -> union. The matrix rows are replayed through
// StreamPhases<SimilarityKind> (streaming_pass.h), the one scan every
// miner shares.

#ifndef DMC_CORE_DMC_SIM_H_
#define DMC_CORE_DMC_SIM_H_

#include "core/dmc_options.h"
#include "core/mining_stats.h"
#include "matrix/binary_matrix.h"
#include "rules/rule_set.h"
#include "util/statusor.h"

namespace dmc {

/// Finds ALL column pairs with similarity >= options.min_similarity, in
/// canonical orientation (sparser column first): no false positives, no
/// false negatives. Pairs carry exact intersection counts.
[[nodiscard]] StatusOr<SimilarityRuleSet> MineSimilarities(
    const BinaryMatrix& matrix, const SimilarityMiningOptions& options,
    MiningStats* stats = nullptr);

}  // namespace dmc

#endif  // DMC_CORE_DMC_SIM_H_
