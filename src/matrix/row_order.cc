#include "matrix/row_order.h"

#include <algorithm>
#include <numeric>

namespace dmc {

std::vector<RowId> IdentityOrder(const BinaryMatrix& m) {
  std::vector<RowId> order(m.num_rows());
  std::iota(order.begin(), order.end(), RowId{0});
  return order;
}

std::vector<RowId> SortedByDensityOrder(const BinaryMatrix& m) {
  std::vector<RowId> order = IdentityOrder(m);
  std::stable_sort(order.begin(), order.end(), [&m](RowId a, RowId b) {
    return m.RowSize(a) < m.RowSize(b);
  });
  return order;
}

int DensityBucket(size_t density) {
  int b = 0;
  while (density > 1) {
    density >>= 1;
    ++b;
  }
  return b;
}

BucketedOrder DensityBucketOrder(const BinaryMatrix& m) {
  std::vector<std::vector<RowId>> buckets(kMaxDensityBuckets);
  const RowId n = m.num_rows();
  for (RowId r = 0; r < n; ++r) {
    buckets[DensityBucket(m.RowSize(r))].push_back(r);
  }

  BucketedOrder result;
  result.order.reserve(n);
  for (int b = 0; b < kMaxDensityBuckets; ++b) {
    if (buckets[b].empty()) continue;
    const size_t begin = result.order.size();
    result.order.insert(result.order.end(), buckets[b].begin(),
                        buckets[b].end());
    result.bucket_ranges.emplace_back(begin, result.order.size());
    result.bucket_min_density.push_back(b == 0 ? 0 : (uint64_t{1} << b));
  }
  return result;
}

}  // namespace dmc
