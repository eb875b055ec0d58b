#include "rules/verifier.h"

#include <string>

namespace dmc {

RuleVerifier::RuleVerifier(const BinaryMatrix& m)
    : postings_(m.AllColumnPostings()), ones_(m.column_ones()) {}

uint32_t RuleVerifier::Intersection(ColumnId i, ColumnId j) const {
  return static_cast<uint32_t>(postings_[i].IntersectCount(postings_[j]));
}

double RuleVerifier::Confidence(ColumnId i, ColumnId j) const {
  if (ones_[i] == 0) return 0.0;
  return double(Intersection(i, j)) / double(ones_[i]);
}

double RuleVerifier::Similarity(ColumnId i, ColumnId j) const {
  const uint32_t inter = Intersection(i, j);
  const uint64_t uni = uint64_t{ones_[i]} + ones_[j] - inter;
  return uni == 0 ? 0.0 : double(inter) / double(uni);
}

Status RuleVerifier::VerifyImplications(const ImplicationRuleSet& rules,
                                        double min_confidence) const {
  for (const ImplicationRule& r : rules) {
    if (r.lhs >= ones_.size() || r.rhs >= ones_.size()) {
      return InvalidArgumentError("rule references unknown column: " +
                                  r.ToString());
    }
    if (r.lhs_ones != ones_[r.lhs]) {
      return InternalError("stored lhs_ones mismatch: " + r.ToString() +
                           " actual ones=" + std::to_string(ones_[r.lhs]));
    }
    const uint32_t inter = Intersection(r.lhs, r.rhs);
    if (r.hits() != inter) {
      return InternalError("stored hit count mismatch: " + r.ToString() +
                           " actual intersection=" + std::to_string(inter));
    }
    if (r.confidence() < min_confidence) {
      return InternalError("confidence below threshold: " + r.ToString());
    }
  }
  return Status::OK();
}

Status RuleVerifier::VerifySimilarities(const SimilarityRuleSet& pairs,
                                        double min_similarity) const {
  for (const SimilarityPair& p : pairs) {
    if (p.a >= ones_.size() || p.b >= ones_.size()) {
      return InvalidArgumentError("pair references unknown column: " +
                                  p.ToString());
    }
    if (p.ones_a != ones_[p.a] || p.ones_b != ones_[p.b]) {
      return InternalError("stored ones mismatch: " + p.ToString());
    }
    const uint32_t inter = Intersection(p.a, p.b);
    if (p.intersection != inter) {
      return InternalError("stored intersection mismatch: " + p.ToString() +
                           " actual=" + std::to_string(inter));
    }
    if (p.similarity() < min_similarity) {
      return InternalError("similarity below threshold: " + p.ToString());
    }
  }
  return Status::OK();
}

SimilarityPair RuleVerifier::MakeSimilarity(ColumnId i, ColumnId j) const {
  SimilarityPair p;
  p.a = i;
  p.b = j;
  p.ones_a = ones_[i];
  p.ones_b = ones_[j];
  if (!SparserFirst(p.ones_a, p.a, p.ones_b, p.b)) {
    std::swap(p.a, p.b);
    std::swap(p.ones_a, p.ones_b);
  }
  p.intersection = Intersection(i, j);
  return p;
}

}  // namespace dmc
