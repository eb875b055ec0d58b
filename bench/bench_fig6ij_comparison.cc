// Reproduces Fig. 6(i) and 6(j): the algorithm comparison on NewsP — the
// support-pruned news corpus chosen so a-priori's full pair-counter array
// fits in memory (its best case).
//
//   (i) implication rules: a-priori vs DMC-imp vs K-Min (K-Min tuned to
//       <10% false negatives, as the paper plots it);
//   (j) similarity rules:  a-priori vs DMC-sim vs Min-Hash (verified).
//
// Also prints the §7 headline ratios at the 85% threshold: the paper
// reports DMC-imp 1.7x faster than a-priori and 1.9x faster than K-Min;
// DMC-sim 5.9x faster than a-priori and 1.7x faster than Min-Hash.

#include <cstdio>
#include <vector>

#include "baselines/apriori.h"
#include "baselines/bruteforce.h"
#include "baselines/kmin.h"
#include "baselines/lsh.h"
#include "baselines/minhash.h"
#include "bench/bench_common.h"
#include "core/engine.h"

namespace {

using namespace dmc;

size_t MatchedPairs(const std::vector<std::pair<ColumnId, ColumnId>>& a,
                    const std::vector<std::pair<ColumnId, ColumnId>>& b) {
  size_t matched = 0;
  for (const auto& p : a) {
    for (const auto& q : b) {
      if (p == q) {
        ++matched;
        break;
      }
    }
  }
  return matched;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale =
      bench::CheckFlags(argc, argv, {bench::kScaleFlag}).GetDouble("scale", 1.0);
  const bench::Dataset newsp = bench::MakeNewsP(scale);
  std::printf("NewsP analogue: %u rows x %u columns, %zu ones\n",
              newsp.matrix.num_rows(), newsp.matrix.num_columns(),
              newsp.matrix.num_ones());

  constexpr double kThresholds[] = {0.70, 0.75, 0.80, 0.85, 0.90, 0.95};
  double dmc_imp_85 = 0, apriori_imp_85 = 0, kmin_85 = 0;
  double dmc_sim_85 = 0, apriori_sim_85 = 0, minhash_85 = 0;

  bench::PrintHeader("Fig. 6(i): implication rules on NewsP [s] (scale=" +
                     std::to_string(scale) + ")");
  std::printf("%-8s %12s %12s %12s %10s %12s\n", "minconf", "a-priori",
              "DMC-imp", "K-Min", "rules", "K-Min FN%");
  for (double t : kThresholds) {
    AprioriStats ap_stats;
    auto ap = AprioriImplications(newsp.matrix, AprioriOptions{}, t,
                                  &ap_stats);
    ImplicationMiningOptions o;
    o.min_confidence = t;
    MiningStats dmc_stats;
    auto dmc_rules = MineImplications(newsp.matrix, o, &dmc_stats);
    KMinOptions kmin_opts;
    kmin_opts.num_hashes = 80;
    kmin_opts.candidate_slack = 0.10;
    KMinStats kmin_stats;
    auto kmin_rules =
        KMinImplications(newsp.matrix, kmin_opts, t, &kmin_stats);
    if (!ap.ok() || !dmc_rules.ok()) continue;

    const auto truth = dmc_rules->Pairs();
    const size_t found = MatchedPairs(truth, kmin_rules.Pairs());
    const double fn_rate =
        truth.empty() ? 0.0 : 100.0 * (truth.size() - found) / truth.size();
    std::printf("%-8.0f %12.3f %12.3f %12.3f %10zu %11.1f%%\n", t * 100,
                ap_stats.total_seconds, dmc_stats.total_seconds,
                kmin_stats.total_seconds, truth.size(), fn_rate);
    std::fflush(stdout);
    if (t == 0.85) {
      apriori_imp_85 = ap_stats.total_seconds;
      dmc_imp_85 = dmc_stats.total_seconds;
      kmin_85 = kmin_stats.total_seconds;
    }
  }

  bench::PrintHeader("Fig. 6(j): similarity rules on NewsP [s]");
  std::printf("%-8s %12s %12s %12s %12s %10s %12s %12s\n", "minsim",
              "a-priori", "DMC-sim", "Min-Hash", "LSH", "pairs", "MH FN%",
              "LSH FN%");
  for (double t : kThresholds) {
    AprioriStats ap_stats;
    auto ap = AprioriSimilarities(newsp.matrix, AprioriOptions{}, t,
                                  &ap_stats);
    SimilarityMiningOptions o;
    o.min_similarity = t;
    MiningStats dmc_stats;
    auto dmc_pairs = MineSimilarities(newsp.matrix, o, &dmc_stats);
    MinHashOptions mh_opts;
    mh_opts.num_hashes = 64;
    mh_opts.candidate_slack = 0.08;
    MinHashStats mh_stats;
    auto mh_pairs =
        MinHashSimilarities(newsp.matrix, mh_opts, t, &mh_stats);
    LshOptions lsh_opts;
    lsh_opts.bands = 16;
    lsh_opts.rows_per_band = 4;
    LshStats lsh_stats;
    auto lsh_pairs = LshSimilarities(newsp.matrix, lsh_opts, t, &lsh_stats);
    if (!ap.ok() || !dmc_pairs.ok()) continue;

    const auto truth = dmc_pairs->Pairs();
    const size_t mh_found = MatchedPairs(truth, mh_pairs.Pairs());
    const size_t lsh_found = MatchedPairs(truth, lsh_pairs.Pairs());
    const double mh_fn =
        truth.empty() ? 0.0
                      : 100.0 * (truth.size() - mh_found) / truth.size();
    const double lsh_fn =
        truth.empty() ? 0.0
                      : 100.0 * (truth.size() - lsh_found) / truth.size();
    std::printf("%-8.0f %12.3f %12.3f %12.3f %12.3f %10zu %11.1f%% %11.1f%%\n",
                t * 100, ap_stats.total_seconds, dmc_stats.total_seconds,
                mh_stats.total_seconds, lsh_stats.total_seconds,
                truth.size(), mh_fn, lsh_fn);
    std::fflush(stdout);
    if (t == 0.85) {
      apriori_sim_85 = ap_stats.total_seconds;
      dmc_sim_85 = dmc_stats.total_seconds;
      minhash_85 = mh_stats.total_seconds;
    }
  }

  bench::PrintHeader("§7 headline speedups at 85% threshold");
  std::printf("%-36s %10s %10s\n", "comparison", "measured", "paper");
  if (dmc_imp_85 > 0) {
    std::printf("%-36s %9.2fx %9.1fx\n", "DMC-imp vs a-priori",
                apriori_imp_85 / dmc_imp_85, 1.7);
    std::printf("%-36s %9.2fx %9.1fx\n", "DMC-imp vs K-Min",
                kmin_85 / dmc_imp_85, 1.9);
  }
  if (dmc_sim_85 > 0) {
    std::printf("%-36s %9.2fx %9.1fx\n", "DMC-sim vs a-priori",
                apriori_sim_85 / dmc_sim_85, 5.9);
    std::printf("%-36s %9.2fx %9.1fx\n", "DMC-sim vs Min-Hash",
                minhash_85 / dmc_sim_85, 1.7);
  }
  std::printf(
      "\nShape check (paper): a-priori wins at low confidence (<=75%%),\n"
      "Min-Hash at low similarity (<=70%%); DMC wins at high thresholds.\n");
  return 0;
}
