// Locality-Sensitive Hashing for similar pairs [Gionis, Indyk, Motwani
// VLDB'99] — the other member of the randomized family the paper's
// introduction positions DMC against.
//
// Min-hash signatures are split into `bands` bands of `rows_per_band`
// values; two columns become a candidate pair iff they agree on at least
// one entire band. A pair with similarity s collides on a band with
// probability s^rows_per_band, so the candidate probability is
// 1 - (1 - s^r)^b — a sharp sigmoid whose knee the (b, r) choice places
// at the similarity threshold. Candidates are verified exactly, so the
// output contains no false positives; pairs that never collide remain
// false negatives with probability (1 - s^r)^b.

#ifndef DMC_BASELINES_LSH_H_
#define DMC_BASELINES_LSH_H_

#include <cstdint>

#include "matrix/binary_matrix.h"
#include "observe/progress.h"
#include "rules/rule_set.h"

namespace dmc {

struct LshOptions {
  /// Number of bands (b).
  uint32_t bands = 12;
  /// Min-hash values per band (r); total signatures = bands * rows.
  uint32_t rows_per_band = 4;
  /// Columns with fewer 1s are ignored.
  uint64_t min_support = 1;
  uint64_t seed = 0x15aCafe;
  /// Bucket groups larger than this are skipped (degenerate collisions).
  size_t max_group = 4096;
  /// Observability hooks; on cancellation the miner returns an empty
  /// rule set with stats->cancelled set.
  ObserveContext observe;
};

struct LshStats {
  double signature_seconds = 0.0;
  double candidate_seconds = 0.0;
  double verify_seconds = 0.0;
  double total_seconds = 0.0;
  size_t candidate_pairs = 0;
  size_t false_positives_removed = 0;
  size_t skipped_groups = 0;
  /// Set when the progress callback cancelled the mine (result empty).
  bool cancelled = false;
};

/// Pairs with exact similarity >= min_similarity among the LSH
/// candidates. Exact counts; possible false negatives (see header).
SimilarityRuleSet LshSimilarities(const BinaryMatrix& m,
                                  const LshOptions& options,
                                  double min_similarity,
                                  LshStats* stats = nullptr);

}  // namespace dmc

#endif  // DMC_BASELINES_LSH_H_
