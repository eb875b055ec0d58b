// Web access-log analysis — the paper's Wlog use case. Mines URL
// implication rules ("clients who fetch this page also fetch that page")
// from a synthetic server log, demonstrating the full two-pass workflow
// including the first-pass stream scan, density-bucket re-ordering and
// the memory instrumentation.
//
//   ./access_log_analysis [num_clients] [min_confidence]

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "core/engine.h"
#include "datagen/weblog_gen.h"
#include "matrix/column_stats.h"
#include "matrix/matrix_io.h"
#include "matrix/row_order.h"

int main(int argc, char** argv) {
  using namespace dmc;
  WebLogOptions gen;
  gen.num_clients = argc > 1 ? static_cast<uint32_t>(atoi(argv[1])) : 30000;
  gen.num_urls = 6000;
  const double minconf = argc > 2 ? atof(argv[2]) : 0.9;

  const BinaryMatrix log = GenerateWebLog(gen);
  std::printf("access log: %u clients x %u URLs, %zu hits\n",
              log.num_rows(), log.num_columns(), log.num_ones());

  // Pass 1 as it would run on disk: stream the text form and collect
  // ones(c) without materializing the matrix.
  std::stringstream disk;
  if (!WriteMatrixText(log, disk).ok()) return 1;
  auto scan = ScanMatrixText(disk);
  if (!scan.ok()) {
    std::fprintf(stderr, "%s\n", scan.status().ToString().c_str());
    return 1;
  }
  std::printf("first pass: %u rows scanned, densest client hit %zu URLs"
              " (crawler)\n", scan->num_rows, Summarize(log).max_row_density);

  const BucketedOrder buckets = DensityBucketOrder(log);
  std::printf("density buckets: %zu (sparsest first, as in §4.1)\n",
              buckets.bucket_ranges.size());

  // Pass 2: mine with the production configuration.
  ImplicationMiningOptions options;
  options.min_confidence = minconf;
  options.policy.memory_threshold_bytes = size_t{4} << 20;
  MiningStats stats;
  auto rules = MineImplications(log, options, &stats);
  if (!rules.ok()) {
    std::fprintf(stderr, "%s\n", rules.status().ToString().c_str());
    return 1;
  }

  std::printf("\nrules at %.0f%% confidence: %zu\n", minconf * 100,
              rules->size());
  std::printf("  pre-scan %.3fs | 100%% phase %.3fs | sub-100%% %.3fs |"
              " total %.3fs\n",
              stats.prescan_seconds, stats.hundred_seconds(),
              stats.sub_seconds(), stats.total_seconds);
  std::printf("  peak counter memory %.2f MB, bitmap fallback: %s\n",
              stats.peak_counter_bytes / (1024.0 * 1024.0),
              stats.hundred_bitmap_triggered || stats.sub_bitmap_triggered
                  ? "used"
                  : "not needed");

  // Navigation insights: pages that imply a section index page.
  std::printf("\nsample page => section-index rules:\n");
  int shown = 0;
  for (const auto& r : rules->SortedByConfidence()) {
    if (r.rhs >= gen.num_sections) continue;  // rhs must be an index page
    std::printf("  url%-6u => section_index%-4u conf=%.3f (seen together"
                " %u times)\n",
                r.lhs, r.rhs, r.confidence(), r.hits());
    if (++shown >= 10) break;
  }
  return 0;
}
