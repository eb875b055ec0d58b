// Exact verification of mined rules against the source matrix.
//
// DMC's headline guarantee is "no false positives and no false negatives";
// the verifier is the independent oracle the test suite uses to check it,
// and the verification step the Min-Hash baseline needs to remove its
// false positives.

#ifndef DMC_RULES_VERIFIER_H_
#define DMC_RULES_VERIFIER_H_

#include <vector>

#include "matrix/binary_matrix.h"
#include "postings/posting_container.h"
#include "rules/rule_set.h"
#include "util/status.h"

namespace dmc {

/// Answers exact pairwise queries via per-column hybrid posting
/// containers (built once; each query is a typed chunk intersection).
class RuleVerifier {
 public:
  explicit RuleVerifier(const BinaryMatrix& m);

  /// |S_i intersect S_j|.
  uint32_t Intersection(ColumnId i, ColumnId j) const;

  /// Conf(c_i => c_j); 0 when ones(i) == 0.
  double Confidence(ColumnId i, ColumnId j) const;

  /// Sim(c_i, c_j); 0 when both columns are empty.
  double Similarity(ColumnId i, ColumnId j) const;

  uint32_t ones(ColumnId c) const { return ones_[c]; }

  /// Checks that every rule's stored counts match the matrix and that its
  /// confidence reaches `min_confidence`. Returns the first violation.
  [[nodiscard]] Status VerifyImplications(const ImplicationRuleSet& rules,
                            double min_confidence) const;

  /// Same for similarity pairs.
  [[nodiscard]] Status VerifySimilarities(const SimilarityRuleSet& pairs,
                            double min_similarity) const;

  /// Builds a SimilarityPair with exact counts for (i, j), in canonical
  /// orientation.
  SimilarityPair MakeSimilarity(ColumnId i, ColumnId j) const;

 private:
  std::vector<PostingContainer> postings_;
  std::vector<uint32_t> ones_;
};

}  // namespace dmc

#endif  // DMC_RULES_VERIFIER_H_
