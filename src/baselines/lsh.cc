#include "baselines/lsh.h"

#include <algorithm>
#include <limits>
#include <unordered_set>
#include <vector>

#include "baselines/minhash.h"
#include "core/thresholds.h"
#include "observe/trace.h"
#include "rules/verifier.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace dmc {

SimilarityRuleSet LshSimilarities(const BinaryMatrix& m,
                                  const LshOptions& options,
                                  double min_similarity, LshStats* stats) {
  LshStats local;
  if (stats == nullptr) stats = &local;
  *stats = LshStats{};
  Stopwatch total_sw;

  const auto& ones = m.column_ones();
  const ObserveContext& obs = options.observe;
  const uint32_t k = options.bands * options.rows_per_band;

  Stopwatch sig_sw;
  std::vector<uint64_t> sig;
  {
    ScopedSpan span(obs.trace, "lsh/signatures", obs.trace_lane);
    sig = ComputeMinHashSignatures(m, k, options.seed, obs,
                                   "lsh_signatures", &stats->cancelled);
  }
  stats->signature_seconds = sig_sw.ElapsedSeconds();
  if (stats->cancelled) {
    stats->total_seconds = total_sw.ElapsedSeconds();
    return SimilarityRuleSet{};
  }

  // Candidate generation: per band, hash the band slice of each column
  // and sort (bucket_key, column) to find collision groups without a
  // hash map.
  Stopwatch cand_sw;
  std::unordered_set<uint64_t> candidate_keys;
  std::vector<std::pair<uint64_t, ColumnId>> keyed;
  keyed.reserve(m.num_columns());
  {
    ScopedSpan span(obs.trace, "lsh/candidates", obs.trace_lane);
    for (uint32_t band = 0; band < options.bands; ++band) {
      if (!CheckProgress(obs, "lsh_bands", band, options.bands,
                         candidate_keys.size(),
                         sig.size() * sizeof(uint64_t))) {
        stats->cancelled = true;
        break;
      }
      keyed.clear();
      for (ColumnId c = 0; c < m.num_columns(); ++c) {
        if (ones[c] < options.min_support) continue;
        uint64_t h = 0x8c2f1b3d5a7e9406ULL ^ band;
        bool empty = false;
        for (uint32_t r = 0; r < options.rows_per_band; ++r) {
          const uint64_t v =
              sig[size_t{c} * k + size_t{band} * options.rows_per_band + r];
          if (v == std::numeric_limits<uint64_t>::max()) empty = true;
          h = Mix64(h ^ v) + 0x9e3779b97f4a7c15ULL;
        }
        if (!empty) keyed.emplace_back(h, c);
      }
      std::sort(keyed.begin(), keyed.end());
      size_t i = 0;
      while (i < keyed.size()) {
        size_t j = i + 1;
        while (j < keyed.size() && keyed[j].first == keyed[i].first) ++j;
        const size_t group = j - i;
        if (group > 1) {
          if (group > options.max_group) {
            ++stats->skipped_groups;
          } else {
            for (size_t a = i; a < j; ++a) {
              for (size_t b = a + 1; b < j; ++b) {
                const ColumnId ca =
                    std::min(keyed[a].second, keyed[b].second);
                const ColumnId cb =
                    std::max(keyed[a].second, keyed[b].second);
                candidate_keys.insert((uint64_t{ca} << 32) | cb);
              }
            }
          }
        }
        i = j;
      }
    }
  }
  if (stats->cancelled) {
    stats->candidate_seconds = cand_sw.ElapsedSeconds();
    stats->total_seconds = total_sw.ElapsedSeconds();
    return SimilarityRuleSet{};
  }
  stats->candidate_pairs = candidate_keys.size();
  stats->candidate_seconds = cand_sw.ElapsedSeconds();

  // Exact verification.
  Stopwatch verify_sw;
  ScopedSpan verify_span(obs.trace, "lsh/verify", obs.trace_lane);
  SimilarityRuleSet out;
  RuleVerifier verifier(m);
  for (uint64_t key : candidate_keys) {
    const ColumnId a = static_cast<ColumnId>(key >> 32);
    const ColumnId b = static_cast<ColumnId>(key & 0xffffffffu);
    const SimilarityPair p = verifier.MakeSimilarity(a, b);
    if (static_cast<int64_t>(p.intersection) >=
        MinHitsForSimilarity(p.ones_a, p.ones_b, min_similarity)) {
      out.Add(p);
    } else {
      ++stats->false_positives_removed;
    }
  }
  stats->verify_seconds = verify_sw.ElapsedSeconds();
  out.Canonicalize();
  stats->total_seconds = total_sw.ElapsedSeconds();
  return out;
}

}  // namespace dmc
