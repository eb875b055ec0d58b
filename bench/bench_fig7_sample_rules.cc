// Reproduces Fig. 7: sample implication rules mined from the news corpus
// at 85% confidence with low-support pruning of columns having fewer than
// 5 ones, then expanded recursively from the "polgar" keyword — the
// paper's text-mining showcase. The synthetic corpus names topic-0
// entities and theme words after the paper's chess example, so the output
// reads like Fig. 7.

#include <cstdio>

#include "bench/bench_common.h"
#include "core/engine.h"
#include "datagen/news_gen.h"
#include "matrix/column_stats.h"
#include "rules/grouping.h"

int main(int argc, char** argv) {
  using namespace dmc;
  const double scale =
      bench::CheckFlags(argc, argv, {bench::kScaleFlag}).GetDouble("scale", 1.0);

  NewsOptions gen;
  gen.num_docs = bench::Scaled(8000, scale);
  gen.num_topics = 25;
  gen.background_vocab = bench::Scaled(3000, scale);
  const NewsData news = GenerateNews(gen);

  // "support pruning less than 5": drop columns with fewer than 5 ones.
  const PrunedMatrix pruned = SupportPruneColumns(news.matrix, 5);

  ImplicationMiningOptions o;
  o.min_confidence = 0.85;
  MiningStats stats;
  auto rules = MineImplications(pruned.matrix, o, &stats);
  if (!rules.ok()) {
    std::printf("mining failed: %s\n", rules.status().ToString().c_str());
    return 1;
  }

  bench::PrintHeader("Fig. 7: sample rules (85% confidence, support >= 5,"
                     " scale=" + std::to_string(scale) + ")");
  std::printf("total rules: %zu (%.2fs)\n\n", rules->size(),
              stats.total_seconds);

  // Map pruned ids back to words.
  auto word = [&](ColumnId pruned_id) {
    return news.words[pruned.original_column[pruned_id]].c_str();
  };

  // Find "polgar" in the pruned matrix.
  ColumnId polgar = pruned.matrix.num_columns();
  for (ColumnId c = 0; c < pruned.matrix.num_columns(); ++c) {
    if (news.words[pruned.original_column[c]] == "polgar") polgar = c;
  }
  if (polgar == pruned.matrix.num_columns()) {
    std::printf("'polgar' was support-pruned at this scale; rerun with a"
                " larger --scale\n");
    return 0;
  }

  const auto expanded = ExpandFromSeed(*rules, polgar, /*max_depth=*/2);
  std::printf("rules reachable from 'polgar' (depth <= 2): %zu\n\n",
              expanded.size());
  int printed = 0;
  for (const auto& r : expanded.SortedByConfidence()) {
    std::printf("  %-14s -> %-14s (conf=%.3f, support=%u)\n", word(r.lhs),
                word(r.rhs), r.confidence(), r.hits());
    if (++printed >= 40) break;
  }

  // The conclusion's grouping idea: connected components approximate
  // multi-attribute rules.
  const auto groups = GroupByConnectedComponents(expanded);
  bench::PrintSubHeader("rule groups (connected components)");
  int shown = 0;
  for (const auto& g : groups) {
    std::printf("  group of %zu columns, %zu rules: ", g.columns.size(),
                g.rule_indices.size());
    int w = 0;
    for (ColumnId c : g.columns) {
      std::printf("%s ", word(c));
      if (++w >= 10) {
        std::printf("...");
        break;
      }
    }
    std::printf("\n");
    if (++shown >= 5) break;
  }
  return 0;
}
