// Ablation: the §4.1 row re-ordering. Compares peak counter-array memory
// and time across original order, density buckets (the paper's choice),
// and exact sparsest-first sort, for both rule kinds. The paper reports
// a 10x memory reduction on the link data (0.33 GB -> 0.033 GB); the
// analogue should show the same direction.

#include <cstdio>

#include "bench/bench_common.h"
#include "core/engine.h"

namespace {

using namespace dmc;

const char* OrderName(RowOrderPolicy p) {
  switch (p) {
    case RowOrderPolicy::kIdentity:
      return "original";
    case RowOrderPolicy::kDensityBuckets:
      return "buckets";
    case RowOrderPolicy::kExactSort:
      return "exact-sort";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const double scale =
      bench::CheckFlags(argc, argv, {bench::kScaleFlag}).GetDouble("scale", 1.0);
  bench::PrintHeader("Ablation: row re-ordering (§4.1), minconf/minsim=1.0"
                     " (scale=" + std::to_string(scale) + ")");
  std::printf("%-8s %-12s %14s %12s %10s\n", "Data", "order",
              "peak MB", "peak cands", "time [s]");

  for (const auto& maker :
       {bench::MakeWlog, bench::MakePlinkF, bench::MakeNewsSet,
        bench::MakeDicD}) {
    const bench::Dataset d = maker(scale);
    for (auto order : {RowOrderPolicy::kIdentity,
                       RowOrderPolicy::kDensityBuckets,
                       RowOrderPolicy::kExactSort}) {
      ImplicationMiningOptions o;
      o.min_confidence = 1.0;
      o.policy.row_order = order;
      o.policy.bitmap_fallback = false;  // isolate ordering effect
      MiningStats s;
      auto rules = MineImplications(d.matrix, o, &s);
      if (!rules.ok()) continue;
      std::printf("%-8s %-12s %14.3f %12zu %10.3f\n", d.name.c_str(),
                  OrderName(order), s.peak_counter_bytes / (1024.0 * 1024.0),
                  s.peak_candidates, s.total_seconds);
      std::fflush(stdout);
    }
  }

  std::printf(
      "\nShape check (paper): sparsest-first ordering cuts peak memory\n"
      "roughly an order of magnitude on link-like data; the bucketed\n"
      "approximation is close to the exact sort.\n");
  return 0;
}
