// Reproduces Fig. 6(a) and 6(b): execution time of DMC-imp and DMC-sim
// versus the confidence / similarity threshold, for all six evaluation
// sets. Paper shape to check: time decreases roughly linearly as the
// threshold rises, and every set finishes in reasonable time at >= 85%.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "core/engine.h"

namespace {

using namespace dmc;

constexpr double kThresholds[] = {0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 1.00};

DmcPolicy BenchPolicy() {
  DmcPolicy p;
  // 2 MB stands in for the paper's 50 MB (data scaled down accordingly).
  p.memory_threshold_bytes = size_t{2} << 20;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale =
      bench::CheckFlags(argc, argv, {bench::kScaleFlag}).GetDouble("scale", 1.0);
  auto datasets = bench::MakeAllDatasets(scale);

  bench::PrintHeader("Fig. 6(a): DMC-imp execution time [s] vs minconf"
                     " (scale=" + std::to_string(scale) + ")");
  std::printf("%-8s", "Data");
  for (double t : kThresholds) std::printf(" %8.0f%%", t * 100);
  std::printf("\n");
  for (const auto& d : datasets) {
    std::printf("%-8s", d.name.c_str());
    for (double t : kThresholds) {
      ImplicationMiningOptions o;
      o.min_confidence = t;
      o.policy = BenchPolicy();
      MiningStats stats;
      auto rules = MineImplications(d.matrix, o, &stats);
      std::printf(" %9.3f", rules.ok() ? stats.total_seconds : -1.0);
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  bench::PrintHeader("Fig. 6(b): DMC-sim execution time [s] vs minsim");
  std::printf("%-8s", "Data");
  for (double t : kThresholds) std::printf(" %8.0f%%", t * 100);
  std::printf("\n");
  for (const auto& d : datasets) {
    std::printf("%-8s", d.name.c_str());
    for (double t : kThresholds) {
      SimilarityMiningOptions o;
      o.min_similarity = t;
      o.policy = BenchPolicy();
      MiningStats stats;
      auto pairs = MineSimilarities(d.matrix, o, &stats);
      std::printf(" %9.3f", pairs.ok() ? stats.total_seconds : -1.0);
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  std::printf(
      "\nShape check (paper): execution time decreases as the threshold\n"
      "increases; all sets tractable at >= 85%%.\n");
  return 0;
}
