// Reproduces Fig. 3: counter-array memory versus scan progress when
// extracting 100%-confidence rules from the Wlog and plinkF analogues,
// with the §4.1 sparsest-first ordering. The paper's observation: with
// dense rows scheduled last, memory explodes near the end of the scan —
// the motivation for the DMC-bitmap fallback. For contrast we also print
// the original (identity) order and the run with the bitmap fallback
// enabled, whose peak stays bounded.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/engine.h"

namespace {

using namespace dmc;

// Prints the MAXIMUM counter-array size within each of 16 equal segments
// of the scan (instantaneous samples would miss peaks that flush within
// a segment — exactly the end-of-scan spikes Fig. 3 is about).
void PrintSeries(const std::string& label,
                 const std::vector<size_t>& history) {
  constexpr int kPoints = 16;
  std::printf("%-28s", label.c_str());
  if (history.empty()) {
    std::printf(" (empty)\n");
    return;
  }
  size_t begin = 0;
  for (int i = 1; i <= kPoints; ++i) {
    const size_t end = history.size() * i / kPoints;
    size_t seg_max = 0;
    for (size_t k = begin; k < end; ++k) {
      seg_max = std::max(seg_max, history[k]);
    }
    std::printf(" %7.2f", seg_max / (1024.0 * 1024.0));
    begin = end;
  }
  std::printf("  MB\n");
}

void RunCase(const bench::Dataset& d, RowOrderPolicy order,
             bool bitmap_fallback, size_t memory_threshold,
             const std::string& label) {
  ImplicationMiningOptions o;
  o.min_confidence = 1.0;
  o.policy.row_order = order;
  o.policy.bitmap_fallback = bitmap_fallback;
  o.policy.memory_threshold_bytes = memory_threshold;
  o.policy.record_history = true;
  MiningStats stats;
  auto rules = MineImplications(d.matrix, o, &stats);
  if (!rules.ok()) {
    std::printf("%s: error %s\n", label.c_str(),
                rules.status().ToString().c_str());
    return;
  }
  PrintSeries(label, stats.memory_history);
  std::printf("%-28s peak=%.2f MB, rules=%zu, bitmap=%s, time=%.2fs\n",
              "", stats.peak_counter_bytes / (1024.0 * 1024.0),
              rules->size(),
              stats.hundred_bitmap_triggered ? "yes" : "no",
              stats.total_seconds);
}

}  // namespace

int main(int argc, char** argv) {
  const double scale =
      bench::CheckFlags(argc, argv, {bench::kScaleFlag}).GetDouble("scale", 1.0);
  bench::PrintHeader(
      "Fig. 3: counter-array memory vs scan progress, 100% rules (scale=" +
      std::to_string(scale) + ")");
  std::printf(
      "Each series: counter-array MB sampled at 16 evenly spaced points\n"
      "of the second scan.\n\n");

  for (const auto& maker : {bench::MakeWlog, bench::MakePlinkT}) {
    const bench::Dataset d = maker(scale);
    bench::PrintSubHeader(d.name);
    // The paper's Fig. 3 configuration: re-ordered scan, no fallback.
    RunCase(d, RowOrderPolicy::kDensityBuckets, /*bitmap=*/false, 0,
            d.name + " sparsest-first");
    RunCase(d, RowOrderPolicy::kIdentity, /*bitmap=*/false, 0,
            d.name + " original order");
    // §4.2's cure: the bitmap fallback caps the explosion.
    RunCase(d, RowOrderPolicy::kDensityBuckets, /*bitmap=*/true,
            size_t{128} << 10, d.name + " +bitmap(128KB)");
  }
  return 0;
}
