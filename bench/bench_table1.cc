// Reproduces Table 1 of the paper: the sizes of all evaluation data sets
// (here: their synthetic analogues), printed next to the paper's numbers.

#include <cstdio>

#include "bench/bench_common.h"
#include "matrix/column_stats.h"

int main(int argc, char** argv) {
  using namespace dmc;
  const double scale =
      bench::CheckFlags(argc, argv, {bench::kScaleFlag}).GetDouble("scale", 1.0);

  bench::PrintHeader("Table 1: data sets (synthetic analogues, scale=" +
                     std::to_string(scale) + ")");
  std::printf("%-8s %12s %12s %12s | %12s %12s (paper)\n", "Data", "Rows",
              "Columns", "Ones", "Rows", "Columns");

  auto datasets = bench::MakeAllDatasets(scale);
  {
    auto newsp = bench::MakeNewsP(scale);
    datasets.insert(datasets.begin() + 5, std::move(newsp));
  }
  for (const auto& d : datasets) {
    const MatrixSummary s = Summarize(d.matrix);
    std::printf("%-8s %12u %12u %12zu | %12lu %12lu\n", d.name.c_str(),
                s.rows, s.columns, s.ones,
                static_cast<unsigned long>(d.paper_rows),
                static_cast<unsigned long>(d.paper_columns));
  }

  bench::PrintSubHeader("shape details (not in the paper's table)");
  std::printf("%-8s %16s %16s %16s %16s\n", "Data", "mean row dens",
              "max row dens", "mean col ones", "max col ones");
  for (const auto& d : datasets) {
    const MatrixSummary s = Summarize(d.matrix);
    std::printf("%-8s %16.2f %16zu %16.2f %16zu\n", d.name.c_str(),
                s.mean_row_density, s.max_row_density, s.mean_column_ones,
                s.max_column_ones);
  }
  return 0;
}
