// Reproduces Fig. 4: the column-density distribution (number of columns
// with a given count of 1s) of the four raw data sets, on log-log
// buckets. The paper's point: all four are heavy-tailed — many columns
// with very few 1s — which is why 100%-rule pruning (§4.3) pays off.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "matrix/column_stats.h"

namespace {

// Log-2 bucketed view of the exact histogram.
std::vector<uint64_t> LogBuckets(const dmc::ColumnDensityHistogram& hist,
                                 int num_buckets) {
  std::vector<uint64_t> buckets(num_buckets, 0);
  for (const auto& e : hist.entries) {
    if (e.ones == 0) continue;
    int b = 0;
    uint64_t v = e.ones;
    while (v > 1 && b < num_buckets - 1) {
      v >>= 1;
      ++b;
    }
    buckets[b] += e.columns;
  }
  return buckets;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dmc;
  const double scale =
      bench::CheckFlags(argc, argv, {bench::kScaleFlag}).GetDouble("scale", 1.0);
  bench::PrintHeader("Fig. 4: column density distribution (scale=" +
                     std::to_string(scale) + ")");

  constexpr int kBuckets = 14;
  std::printf("%-8s", "ones in");
  for (int b = 0; b < kBuckets; ++b) {
    std::printf(" %8llu+", static_cast<unsigned long long>(1ULL << b));
  }
  std::printf("\n");

  for (const auto& maker :
       {bench::MakeWlog, bench::MakePlinkF, bench::MakeNewsSet,
        bench::MakeDicD}) {
    const bench::Dataset d = maker(scale);
    const auto hist = ComputeColumnDensityHistogram(d.matrix);
    const auto buckets = LogBuckets(hist, kBuckets);
    std::printf("%-8s", d.name.c_str());
    for (uint64_t v : buckets) {
      std::printf(" %9llu", static_cast<unsigned long long>(v));
    }
    std::printf("\n");
  }

  std::printf(
      "\nShape check (paper: all four sets are heavy-tailed; most columns\n"
      "have few 1s, a handful are very dense).\n");
  return 0;
}
