// Merging per-shard rule sets back into the single-process result.
//
// The lhs-shard partition gives each rule exactly one owner (implication
// rules belong to their antecedent's shard; a similarity pair belongs to
// the shard of its canonical — sparser, then lower-id — column), so the
// per-task canonical rule sets are pairwise disjoint and already sorted
// by the canonical (lhs, rhs) / (a, b) order. A k-way std::merge over
// them therefore reproduces Canonicalize(union) byte for byte — the
// merge-order invariant DESIGN §5.8 proves and the differential tests
// enforce.

#ifndef DMC_SHARD_MERGE_H_
#define DMC_SHARD_MERGE_H_

#include <vector>

#include "rules/rule_set.h"

namespace dmc {
namespace shard {

/// Merges disjoint canonical per-shard implication rule sets into the
/// canonical union. Inputs must each be canonical (sorted by (lhs, rhs),
/// deduplicated); the output equals Canonicalize of the concatenation.
ImplicationRuleSet MergeCanonical(
    std::vector<ImplicationRuleSet> parts);

/// Same for similarity pairs (inputs canonical: sparser-first
/// orientation, sorted by (a, b)).
SimilarityRuleSet MergeCanonicalSim(std::vector<SimilarityRuleSet> parts);

}  // namespace shard
}  // namespace dmc

#endif  // DMC_SHARD_MERGE_H_
