#include "rules/rule_set.h"

#include <algorithm>
#include <iterator>

namespace dmc {

namespace {

// Folds pairwise std::merge calls over the parts' sorted runs; with a
// handful of shards that is both fast enough and obviously stable.
template <typename Set, typename Record>
Set MergeRuns(std::vector<Set> parts, std::vector<Record> (Set::*take)()) {
  std::vector<Record> merged;
  for (Set& part : parts) {
    std::vector<Record> run = (part.*take)();
    if (run.empty()) continue;
    if (merged.empty()) {
      merged = std::move(run);
      continue;
    }
    std::vector<Record> next;
    next.reserve(merged.size() + run.size());
    std::merge(merged.begin(), merged.end(), run.begin(), run.end(),
               std::back_inserter(next));
    merged = std::move(next);
  }
  return Set(std::move(merged));
}

}  // namespace

ImplicationRuleSet MergeCanonical(std::vector<ImplicationRuleSet> parts) {
  return MergeRuns(std::move(parts), &ImplicationRuleSet::TakeRules);
}

SimilarityRuleSet MergeCanonical(std::vector<SimilarityRuleSet> parts) {
  return MergeRuns(std::move(parts), &SimilarityRuleSet::TakePairs);
}

// Canonicalize sorts with std::stable_sort: the sets it sees are mostly
// concatenations of sorted runs (each candidate list a scan flushes, each
// pass, each shard), which its merges order 2-3x faster than std::sort
// (1.69 M rules of one pass: 138-154 against 302-436 ms).
void ImplicationRuleSet::Canonicalize() {
  std::stable_sort(rules_.begin(), rules_.end());
  rules_.erase(std::unique(rules_.begin(), rules_.end(),
                           [](const ImplicationRule& a,
                              const ImplicationRule& b) {
                             return a.lhs == b.lhs && a.rhs == b.rhs;
                           }),
               rules_.end());
}

std::vector<std::pair<ColumnId, ColumnId>> ImplicationRuleSet::Pairs() const {
  std::vector<std::pair<ColumnId, ColumnId>> out;
  out.reserve(rules_.size());
  for (const auto& r : rules_) out.emplace_back(r.lhs, r.rhs);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

ImplicationRuleSet ImplicationRuleSet::FilterByConfidence(
    double min_confidence) const {
  ImplicationRuleSet out;
  for (const auto& r : rules_) {
    if (r.confidence() >= min_confidence) out.Add(r);
  }
  return out;
}

ImplicationRuleSet ImplicationRuleSet::SortedByConfidence() const {
  ImplicationRuleSet out = *this;
  std::sort(out.rules_.begin(), out.rules_.end(),
            [](const ImplicationRule& a, const ImplicationRule& b) {
              return HigherConfidence(a, b);
            });
  return out;
}

void ImplicationRuleSet::Print(std::ostream& os, size_t limit) const {
  const size_t n =
      limit == 0 ? rules_.size() : std::min(limit, rules_.size());
  for (size_t i = 0; i < n; ++i) os << rules_[i].ToString() << "\n";
  if (n < rules_.size()) {
    os << "... (" << rules_.size() - n << " more)\n";
  }
}

void SimilarityRuleSet::Canonicalize() {
  for (auto& p : pairs_) {
    if (!SparserFirst(p.ones_a, p.a, p.ones_b, p.b)) {
      std::swap(p.a, p.b);
      std::swap(p.ones_a, p.ones_b);
    }
  }
  std::stable_sort(pairs_.begin(), pairs_.end());
  pairs_.erase(std::unique(pairs_.begin(), pairs_.end(),
                           [](const SimilarityPair& x,
                              const SimilarityPair& y) {
                             return x.a == y.a && x.b == y.b;
                           }),
               pairs_.end());
}

std::vector<std::pair<ColumnId, ColumnId>> SimilarityRuleSet::Pairs() const {
  std::vector<std::pair<ColumnId, ColumnId>> out;
  out.reserve(pairs_.size());
  for (const auto& p : pairs_) {
    // Orientation-insensitive key: smaller id first.
    out.emplace_back(std::min(p.a, p.b), std::max(p.a, p.b));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

SimilarityRuleSet SimilarityRuleSet::FilterBySimilarity(
    double min_similarity) const {
  SimilarityRuleSet out;
  for (const auto& p : pairs_) {
    if (p.similarity() >= min_similarity) out.Add(p);
  }
  return out;
}

SimilarityRuleSet SimilarityRuleSet::SortedBySimilarity() const {
  SimilarityRuleSet out = *this;
  std::sort(out.pairs_.begin(), out.pairs_.end(),
            [](const SimilarityPair& x, const SimilarityPair& y) {
              if (x.similarity() != y.similarity()) {
                return x.similarity() > y.similarity();
              }
              return std::tie(x.a, x.b) < std::tie(y.a, y.b);
            });
  return out;
}

void SimilarityRuleSet::Print(std::ostream& os, size_t limit) const {
  const size_t n =
      limit == 0 ? pairs_.size() : std::min(limit, pairs_.size());
  for (size_t i = 0; i < n; ++i) os << pairs_[i].ToString() << "\n";
  if (n < pairs_.size()) {
    os << "... (" << pairs_.size() - n << " more)\n";
  }
}

}  // namespace dmc
