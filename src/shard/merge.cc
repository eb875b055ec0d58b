#include "shard/merge.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace dmc {
namespace shard {

namespace {

/// k-way merge of sorted, pairwise-disjoint runs under `less`. With a
/// handful of shards a simple fold of pairwise std::merge calls is
/// both optimal enough and obviously stable.
template <typename T, typename Less>
std::vector<T> KWayMerge(std::vector<std::vector<T>> runs, Less less) {
  std::vector<T> merged;
  for (auto& run : runs) {
    if (run.empty()) continue;
    if (merged.empty()) {
      merged = std::move(run);
      continue;
    }
    std::vector<T> next;
    next.reserve(merged.size() + run.size());
    std::merge(merged.begin(), merged.end(), run.begin(), run.end(),
               std::back_inserter(next), less);
    merged = std::move(next);
  }
  return merged;
}

}  // namespace

ImplicationRuleSet MergeCanonical(std::vector<ImplicationRuleSet> parts) {
  std::vector<std::vector<ImplicationRule>> runs;
  runs.reserve(parts.size());
  for (auto& p : parts) runs.push_back(p.TakeRules());
  return ImplicationRuleSet(KWayMerge(
      std::move(runs), [](const ImplicationRule& a, const ImplicationRule& b) {
        return a < b;
      }));
}

SimilarityRuleSet MergeCanonicalSim(std::vector<SimilarityRuleSet> parts) {
  std::vector<std::vector<SimilarityPair>> runs;
  runs.reserve(parts.size());
  for (auto& p : parts) runs.push_back(p.TakePairs());
  return SimilarityRuleSet(KWayMerge(
      std::move(runs),
      [](const SimilarityPair& x, const SimilarityPair& y) { return x < y; }));
}

}  // namespace shard
}  // namespace dmc
