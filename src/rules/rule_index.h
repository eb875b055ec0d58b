// Servable rule index — the read side of the incremental pipeline.
//
// A RuleIndexSnapshot is an immutable, antecedent-keyed view of one
// canonical ImplicationRuleSet: rules grouped by antecedent, each group
// (and a global ordering for TopK) sorted by exact confidence, ties
// broken by column ids so equal inputs always serve identical results.
// Confidence comparisons (HigherConfidence, rules/rule_set.h) cross-
// multiply the integer counts (hits_a * lhs_ones_b vs hits_b * lhs_ones_a
// in uint64) instead of dividing, so the order is exact — no float
// rounding can reorder two rules whose true confidences differ.
//
// RuleIndex is the serving handle: queries read a shared_ptr to the
// current snapshot, Publish() builds a fresh snapshot off to the side
// and swaps it in under a mutex. Readers holding the old snapshot keep
// a consistent view for as long as they need it — the swap never blocks
// or mutates what they see (the TSan stage exercises queries racing
// Publish). The index lives in memory only: dmc_serve re-seeds from its
// input, and dmc_cli's --query-lhs / --query-rhs answer from a snapshot
// of the rules just mined.

#ifndef DMC_RULES_RULE_INDEX_H_
#define DMC_RULES_RULE_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "rules/rule_set.h"
#include "util/thread_annotations.h"

namespace dmc {

/// Immutable, query-optimized view of one rule set. Build once, share
/// freely across threads; every accessor is const and allocation-free
/// except for the returned copies.
class RuleIndexSnapshot {
 public:
  /// Indexes a copy of `rules` (canonicalized) tagged with `generation`.
  static std::shared_ptr<const RuleIndexSnapshot> Build(
      const ImplicationRuleSet& rules, uint64_t generation);

  /// All rules lhs => *, highest confidence first.
  std::vector<ImplicationRule> QueryByAntecedent(ColumnId lhs) const;

  /// All rules * => rhs, highest confidence first.
  std::vector<ImplicationRule> QueryByConsequent(ColumnId rhs) const;

  /// The k highest-confidence rules overall (fewer when the index is
  /// smaller). k == 0 returns everything.
  std::vector<ImplicationRule> TopK(size_t k) const;

  uint64_t generation() const { return generation_; }
  size_t size() const { return by_lhs_.size(); }
  bool empty() const { return by_lhs_.empty(); }

 private:
  RuleIndexSnapshot() = default;

  uint64_t generation_ = 0;
  /// Sorted by (lhs, HigherConfidence, rhs): one contiguous,
  /// confidence-ordered posting per antecedent.
  std::vector<ImplicationRule> by_lhs_;
  /// Indices into by_lhs_ sorted by (rhs, HigherConfidence): the
  /// consequent-keyed postings.
  std::vector<uint32_t> by_rhs_;
  /// Indices into by_lhs_ in global HigherConfidence order for TopK.
  std::vector<uint32_t> by_conf_;
};

/// Thread-safe serving handle over an atomically swappable snapshot.
class RuleIndex {
 public:
  /// Starts with an empty generation-0 snapshot, so queries are valid
  /// before the first Publish.
  RuleIndex();

  RuleIndex(const RuleIndex&) = delete;
  RuleIndex& operator=(const RuleIndex&) = delete;

  /// The current snapshot. The returned pointer stays valid and
  /// immutable regardless of later Publish calls.
  std::shared_ptr<const RuleIndexSnapshot> snapshot() const;

  /// Builds a snapshot of `rules` with the next generation number and
  /// swaps it in. In-flight readers keep the snapshot they hold; the
  /// build itself runs outside the readers' mutex, so snapshot() never
  /// waits longer than a pointer swap.
  void Publish(const ImplicationRuleSet& rules);

 private:
  /// Serializes writers (Publish) so concurrent publishes cannot
  /// both read generation g and race to install g+1 twice. Always
  /// acquired before mu_; never held by readers.
  Mutex publish_mu_ DMC_ACQUIRED_BEFORE(mu_);
  /// Guards only the pointer: the pointed-to snapshot is immutable, so
  /// readers that copied the shared_ptr need no capability (this is the
  /// capability model for the snapshot swap — DESIGN §5.6).
  mutable Mutex mu_;
  std::shared_ptr<const RuleIndexSnapshot> snapshot_ DMC_GUARDED_BY(mu_);
};

}  // namespace dmc

#endif  // DMC_RULES_RULE_INDEX_H_
