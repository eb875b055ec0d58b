// Quickstart: build a small 0/1 matrix, mine implication and similarity
// rules, and inspect the results.
//
//   ./quickstart [path/to/matrix.txt]
//
// Without an argument it uses a tiny inline data set (the matrix from the
// paper's Example 3.1); with one it loads a transaction-format text file
// (one row per line, space-separated column ids).

#include <cstdio>
#include <iostream>

#include "core/engine.h"
#include "matrix/matrix_io.h"
#include "observe/json_writer.h"
#include "observe/metrics.h"
#include "rules/verifier.h"

int main(int argc, char** argv) {
  using namespace dmc;

  BinaryMatrix matrix;
  if (argc > 1) {
    auto loaded = ReadMatrixTextFile(argv[1]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", argv[1],
                   loaded.status().ToString().c_str());
      return 1;
    }
    matrix = std::move(loaded).value();
  } else {
    // The 9x6 matrix of the paper's Example 3.1.
    matrix = BinaryMatrix::FromRows(
        6, {{1, 5}, {2, 3, 4}, {2, 4}, {0, 1, 2, 5}, {0, 3, 5},
            {0, 3, 4, 5}, {0, 1, 2, 3, 4, 5}, {1, 4}, {0, 1, 2, 3}});
  }
  std::printf("matrix: %u rows x %u columns, %zu ones\n",
              matrix.num_rows(), matrix.num_columns(), matrix.num_ones());

  // --- implication rules -------------------------------------------
  // The observe hooks are optional; hooking a registry in makes the
  // engine mirror its stats under "imp.*" (see README "Observability").
  MetricsRegistry registry;
  ImplicationMiningOptions imp_options;
  imp_options.min_confidence = 0.8;
  imp_options.policy.observe.metrics = &registry;
  MiningStats imp_stats;
  auto rules = MineImplications(matrix, imp_options, &imp_stats);
  if (!rules.ok()) {
    std::fprintf(stderr, "mining failed: %s\n",
                 rules.status().ToString().c_str());
    return 1;
  }
  std::printf("\nimplication rules (confidence >= %.0f%%): %zu found in"
              " %.3fs, peak counter memory %zu bytes\n",
              imp_options.min_confidence * 100, rules->size(),
              imp_stats.total_seconds, imp_stats.peak_counter_bytes);
  rules->SortedByConfidence().Print(std::cout, 10);

  // --- similarity pairs --------------------------------------------
  SimilarityMiningOptions sim_options;
  sim_options.min_similarity = 0.5;
  auto pairs = MineSimilarities(matrix, sim_options);
  if (!pairs.ok()) {
    std::fprintf(stderr, "mining failed: %s\n",
                 pairs.status().ToString().c_str());
    return 1;
  }
  std::printf("\nsimilarity pairs (similarity >= %.0f%%): %zu found\n",
              sim_options.min_similarity * 100, pairs->size());
  pairs->SortedBySimilarity().Print(std::cout, 10);

  // --- results are exact: double-check them against the matrix -----
  const RuleVerifier verifier(matrix);
  const Status imp_ok =
      verifier.VerifyImplications(*rules, imp_options.min_confidence);
  const Status sim_ok =
      verifier.VerifySimilarities(*pairs, sim_options.min_similarity);
  std::printf("\nverification: implications %s, similarities %s\n",
              imp_ok.ok() ? "OK" : imp_ok.ToString().c_str(),
              sim_ok.ok() ? "OK" : sim_ok.ToString().c_str());

  // --- machine-readable telemetry ----------------------------------
  std::printf("\nmetrics recorded by the engine:\n");
  {
    JsonWriter w(std::cout, /*indent=*/2);
    registry.WriteJson(w);
  }
  std::printf("\n");
  return imp_ok.ok() && sim_ok.ok() ? 0 : 1;
}
