// DMC-imp (Algorithm 4.2): the complete implication-rule miner.
//
// Pipeline: pre-scan (ones(c) + row re-ordering) -> 100%-confidence phase
// with the §4.3 simplification -> column cutoff (sound form of step 3) ->
// sub-100% phase -> union. Both phases use DMC-base with the DMC-bitmap
// fallback: the matrix rows are replayed in the pre-scan order through
// StreamImplications (streaming_imp.h), the one scan every miner shares.

#ifndef DMC_CORE_DMC_IMP_H_
#define DMC_CORE_DMC_IMP_H_

#include <cstdint>
#include <vector>

#include "core/dmc_options.h"
#include "core/mining_stats.h"
#include "matrix/binary_matrix.h"
#include "rules/rule_set.h"
#include "util/statusor.h"

namespace dmc {

/// Finds ALL implication rules c_i => c_j with confidence >=
/// options.min_confidence, over pairs ordered sparser-to-denser (§2): no
/// false positives, no false negatives. Rules carry exact miss counts.
///
/// `stats`, when non-null, receives the phase/time/memory breakdown.
[[nodiscard]] StatusOr<ImplicationRuleSet> MineImplications(
    const BinaryMatrix& matrix, const ImplicationMiningOptions& options,
    MiningStats* stats = nullptr);

/// Advanced: restricts rule antecedents to the columns marked in
/// `lhs_shard` (size num_columns). Unioning the outputs of a column
/// partition reproduces the unsharded result exactly — the building block
/// of the parallel divide-and-conquer miner (§7 future work; see
/// parallel_dmc.h).
[[nodiscard]] StatusOr<ImplicationRuleSet> MineImplicationsSharded(
    const BinaryMatrix& matrix, const ImplicationMiningOptions& options,
    const std::vector<uint8_t>& lhs_shard, MiningStats* stats = nullptr);

/// The second-scan row order `policy` prescribes for `matrix` (§4.1);
/// the pre-scan of both in-memory miners.
std::vector<RowId> MakeRowOrder(const BinaryMatrix& matrix,
                                RowOrderPolicy policy);

}  // namespace dmc

#endif  // DMC_CORE_DMC_IMP_H_
