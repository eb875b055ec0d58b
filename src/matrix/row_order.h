// Row-ordering strategies for the second DMC pass.
//
// §4.1 of the paper: reading sparser rows first keeps early candidate
// lists small. Exact sorting is expensive on disk, so the paper buckets
// rows by density ranges [2^i, 2^{i+1}) during the first pass and reads
// lower-density buckets first; both the exact sort and the bucketed
// approximation are provided here.

#ifndef DMC_MATRIX_ROW_ORDER_H_
#define DMC_MATRIX_ROW_ORDER_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "matrix/binary_matrix.h"

namespace dmc {

/// Rows in their original order.
std::vector<RowId> IdentityOrder(const BinaryMatrix& m);

/// Rows ordered by exact density, sparsest first; stable (original order
/// within equal densities).
std::vector<RowId> SortedByDensityOrder(const BinaryMatrix& m);

/// Density buckets [2^i, 2^{i+1}), densities 0 and 1 sharing bucket 0:
/// at most this many exist for 32-bit densities.
inline constexpr int kMaxDensityBuckets = 33;

/// The density bucket of a row with `density` ones: floor(log2(density)),
/// 0 for densities 0 and 1. The one bucket rule of the in-memory order
/// below and the external miner's bucket files (core/external_miner.h),
/// which must agree for both to replay rows in the same order.
int DensityBucket(size_t density);

/// The paper's bucketed approximation of sparsest-first.
struct BucketedOrder {
  /// All row ids, grouped by bucket, sparsest bucket first; original order
  /// preserved within a bucket (this is what a two-pass disk partition
  /// yields).
  std::vector<RowId> order;
  /// Half-open ranges [begin, end) into `order`, one per non-empty bucket,
  /// sparsest first.
  std::vector<std::pair<size_t, size_t>> bucket_ranges;
  /// Density lower bound (2^i; bucket 0 covers densities 0 and 1) of each
  /// entry of bucket_ranges.
  std::vector<uint64_t> bucket_min_density;
};

/// Buckets rows into density ranges [2^i, 2^{i+1}) (bucket 0 additionally
/// holds empty rows), ordered sparsest bucket first. At most
/// ceil(log2(num_columns)) + 1 buckets, as the paper notes.
BucketedOrder DensityBucketOrder(const BinaryMatrix& m);

}  // namespace dmc

#endif  // DMC_MATRIX_ROW_ORDER_H_
