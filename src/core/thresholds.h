// Integer miss/hit thresholds derived from the real-valued confidence and
// similarity thresholds.
//
// Every component (DMC engines, bitmap fallback, baselines, brute-force
// oracle) uses these exact same functions, so "rule holds" is a single
// consistent integer predicate across the whole library — the property
// tests can then demand exact rule-set equality.

#ifndef DMC_CORE_THRESHOLDS_H_
#define DMC_CORE_THRESHOLDS_H_

#include <cmath>
#include <cstdint>

namespace dmc {

// Guards floor() against double rounding at exact rational boundaries
// (e.g. (1-0.9)*10 evaluating to 0.9999999999999998). Safe because the
// true values are rationals with small denominators whose distance from
// any other integer is far larger than this.
inline constexpr double kThresholdEpsilon = 1e-6;

/// maxmis(c) from §3.3: the largest number of misses a rule c => * may
/// have while keeping confidence >= min_confidence, given ones(c) = ones.
inline int64_t MaxMissesForConfidence(uint32_t ones, double min_confidence) {
  return static_cast<int64_t>(
      std::floor((1.0 - min_confidence) * ones + kThresholdEpsilon));
}

/// Pair-specific miss budget for similarity (§5): with a = ones(c_i) <=
/// b = ones(c_j) and mis = |S_i \ S_j|, the similarity is
/// (a - mis) / (b + mis), so Sim >= s iff mis <= (a - s*b) / (1 + s).
/// Negative result means the pair can never reach similarity s — this is
/// exactly the column-density pruning condition a/b < s of §5.1.
inline int64_t MaxMissesForSimilarity(uint32_t ones_a, uint32_t ones_b,
                                      double min_similarity) {
  return static_cast<int64_t>(
      std::floor((ones_a - min_similarity * ones_b) / (1.0 + min_similarity) +
                 kThresholdEpsilon));
}

/// Column-level miss budget for DMC-sim: the loosest pair budget any
/// partner of c_i can offer is at b = a (§5: maximized when the partner is
/// equally sparse). Once cnt(c_i) exceeds this, no new candidate can ever
/// be added to c_i's list.
inline int64_t ColumnMaxMissesForSimilarity(uint32_t ones_a,
                                            double min_similarity) {
  return MaxMissesForSimilarity(ones_a, ones_a, min_similarity);
}

/// Minimum |S_i intersect S_j| for the pair to reach similarity s.
inline int64_t MinHitsForSimilarity(uint32_t ones_a, uint32_t ones_b,
                                    double min_similarity) {
  return static_cast<int64_t>(ones_a) -
         MaxMissesForSimilarity(ones_a, ones_b, min_similarity);
}

/// DMC-imp step 3 (sound form; see DESIGN.md): a column is useful below
/// the 100% phase iff it tolerates at least one miss.
inline bool ColumnSurvivesConfidenceCutoff(uint32_t ones,
                                           double min_confidence) {
  return MaxMissesForConfidence(ones, min_confidence) >= 1;
}

/// DMC-sim step 3 (sound form; see DESIGN.md): a column with `ones` 1s can
/// be in a non-identical pair of similarity >= s iff ones/(ones+1) >= s.
inline bool ColumnSurvivesSimilarityCutoff(uint32_t ones,
                                           double min_similarity) {
  if (ones == 0) return false;
  return static_cast<double>(ones) / (ones + 1.0) >=
         min_similarity - kThresholdEpsilon;
}

}  // namespace dmc

#endif  // DMC_CORE_THRESHOLDS_H_
