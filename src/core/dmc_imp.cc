#include "core/dmc_imp.h"

#include "core/streaming_pass.h"
#include "matrix/row_order.h"

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

StatusOr<ImplicationRuleSet> MineImplications(
    const BinaryMatrix& matrix, const ImplicationMiningOptions& options,
    MiningStats* stats) {
  return MineMatrix<ImplicationKind>(matrix, options, nullptr, stats);
}

}  // namespace dmc
