// Containers for mined rules with the operations tests and benches need:
// canonical sorting, equality as sets, filtering, the exact confidence
// order, the merge of disjoint shard outputs, and text output.

#ifndef DMC_RULES_RULE_SET_H_
#define DMC_RULES_RULE_SET_H_

#include <cstdint>
#include <ostream>
#include <tuple>
#include <utility>
#include <vector>

#include "rules/rule.h"

namespace dmc {

/// A set of implication rules. Thin wrapper over a vector; Canonicalize()
/// establishes the sorted/deduplicated form used for comparisons.
class ImplicationRuleSet {
 public:
  ImplicationRuleSet() = default;
  explicit ImplicationRuleSet(std::vector<ImplicationRule> rules)
      : rules_(std::move(rules)) {}

  void Add(const ImplicationRule& rule) { rules_.push_back(rule); }

  size_t size() const { return rules_.size(); }
  bool empty() const { return rules_.empty(); }
  const std::vector<ImplicationRule>& rules() const { return rules_; }
  std::vector<ImplicationRule>& mutable_rules() { return rules_; }
  /// Destructively moves the rules out, leaving the set empty — the
  /// sanctioned way for pipeline stages (e.g. MergeCanonical) to
  /// re-own mined rules without mutating a set in place.
  std::vector<ImplicationRule> TakeRules() { return std::move(rules_); }

  auto begin() const { return rules_.begin(); }
  auto end() const { return rules_.end(); }

  /// Sorts by (lhs, rhs) and removes duplicates.
  void Canonicalize();

  /// (lhs, rhs) pairs in canonical order — the comparison key used by the
  /// exactness tests (counts are checked separately by the verifier).
  std::vector<std::pair<ColumnId, ColumnId>> Pairs() const;

  /// Rules with confidence >= min_confidence.
  ImplicationRuleSet FilterByConfidence(double min_confidence) const;

  /// Sorted copy in HigherConfidence order: highest exact confidence
  /// first, ties by (lhs, rhs).
  ImplicationRuleSet SortedByConfidence() const;

  void Print(std::ostream& os, size_t limit = 0) const;

 private:
  std::vector<ImplicationRule> rules_;
};

/// A set of similarity pairs, same design as ImplicationRuleSet.
class SimilarityRuleSet {
 public:
  SimilarityRuleSet() = default;
  explicit SimilarityRuleSet(std::vector<SimilarityPair> pairs)
      : pairs_(std::move(pairs)) {}

  void Add(const SimilarityPair& pair) { pairs_.push_back(pair); }

  size_t size() const { return pairs_.size(); }
  bool empty() const { return pairs_.empty(); }
  const std::vector<SimilarityPair>& pairs() const { return pairs_; }
  std::vector<SimilarityPair>& mutable_pairs() { return pairs_; }
  /// Destructive move-out, mirroring ImplicationRuleSet::TakeRules().
  std::vector<SimilarityPair> TakePairs() { return std::move(pairs_); }

  auto begin() const { return pairs_.begin(); }
  auto end() const { return pairs_.end(); }

  /// Puts every pair in canonical orientation (sparser column first, ties
  /// by id), sorts by (a, b), and removes duplicates.
  void Canonicalize();

  /// (a, b) pairs in canonical order.
  std::vector<std::pair<ColumnId, ColumnId>> Pairs() const;

  SimilarityRuleSet FilterBySimilarity(double min_similarity) const;

  SimilarityRuleSet SortedBySimilarity() const;

  void Print(std::ostream& os, size_t limit = 0) const;

 private:
  std::vector<SimilarityPair> pairs_;
};

/// Exact confidence ordering: true iff a's confidence is strictly higher
/// than b's, ties broken by ascending (lhs, rhs). Zero-antecedent rules
/// compare as confidence 0. Integer cross-multiplication — safe in
/// uint64 since counts are uint32 — so the comparator agrees with exact
/// rational comparison, not with double rounding. Inline: the sorts of
/// SortedByConfidence and the rule index call it per comparison.
inline bool HigherConfidence(const ImplicationRule& a,
                             const ImplicationRule& b) {
  // Clamp so a malformed rule (misses > lhs_ones) orders as confidence 0
  // instead of wrapping around.
  const uint64_t nx = a.misses > a.lhs_ones ? 0 : a.lhs_ones - a.misses;
  const uint64_t ny = b.misses > b.lhs_ones ? 0 : b.lhs_ones - b.misses;
  const uint64_t dx = a.lhs_ones == 0 ? 1 : a.lhs_ones;
  const uint64_t dy = b.lhs_ones == 0 ? 1 : b.lhs_ones;
  // nx/dx > ny/dy, exactly: counts are uint32, so the products fit.
  const uint64_t lhs = nx * dy;
  const uint64_t rhs = ny * dx;
  if (lhs != rhs) return lhs > rhs;
  return std::tie(a.lhs, a.rhs) < std::tie(b.lhs, b.rhs);
}

/// The canonical union of the shard outputs of one antecedent partition
/// (both executors: parallel_dmc's threads and the shard coordinator's
/// processes). Each part must be canonical, and no rule may sit in two
/// parts — each rule has one owner: an implication its antecedent's
/// shard, a similarity pair its sparser column's shard. A fold of
/// std::merge over the sorted runs then equals Canonicalize() of the
/// concatenation byte for byte, with no re-sort and no dedup pass
/// (DESIGN §5.8).
ImplicationRuleSet MergeCanonical(std::vector<ImplicationRuleSet> parts);
SimilarityRuleSet MergeCanonical(std::vector<SimilarityRuleSet> parts);

}  // namespace dmc

#endif  // DMC_RULES_RULE_SET_H_
