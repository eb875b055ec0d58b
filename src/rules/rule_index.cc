#include "rules/rule_index.h"

#include <algorithm>
#include <utility>

namespace dmc {

std::shared_ptr<const RuleIndexSnapshot> RuleIndexSnapshot::Build(
    const ImplicationRuleSet& rules, uint64_t generation) {
  ImplicationRuleSet canonical = rules;
  canonical.Canonicalize();

  auto snapshot = std::shared_ptr<RuleIndexSnapshot>(new RuleIndexSnapshot());
  snapshot->generation_ = generation;
  snapshot->by_lhs_ = canonical.rules();
  std::sort(snapshot->by_lhs_.begin(), snapshot->by_lhs_.end(),
            [](const ImplicationRule& a, const ImplicationRule& b) {
              if (a.lhs != b.lhs) return a.lhs < b.lhs;
              return HigherConfidence(a, b);
            });

  const uint32_t n = static_cast<uint32_t>(snapshot->by_lhs_.size());
  snapshot->by_rhs_.resize(n);
  snapshot->by_conf_.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    snapshot->by_rhs_[i] = i;
    snapshot->by_conf_[i] = i;
  }
  const std::vector<ImplicationRule>& all = snapshot->by_lhs_;
  std::sort(snapshot->by_rhs_.begin(), snapshot->by_rhs_.end(),
            [&all](uint32_t x, uint32_t y) {
              if (all[x].rhs != all[y].rhs) return all[x].rhs < all[y].rhs;
              return HigherConfidence(all[x], all[y]);
            });
  std::sort(snapshot->by_conf_.begin(), snapshot->by_conf_.end(),
            [&all](uint32_t x, uint32_t y) {
              return HigherConfidence(all[x], all[y]);
            });
  return snapshot;
}

std::vector<ImplicationRule> RuleIndexSnapshot::QueryByAntecedent(
    ColumnId lhs) const {
  const auto first = std::lower_bound(
      by_lhs_.begin(), by_lhs_.end(), lhs,
      [](const ImplicationRule& r, ColumnId value) { return r.lhs < value; });
  const auto last = std::upper_bound(
      by_lhs_.begin(), by_lhs_.end(), lhs,
      [](ColumnId value, const ImplicationRule& r) { return value < r.lhs; });
  return std::vector<ImplicationRule>(first, last);
}

std::vector<ImplicationRule> RuleIndexSnapshot::QueryByConsequent(
    ColumnId rhs) const {
  const auto first = std::lower_bound(
      by_rhs_.begin(), by_rhs_.end(), rhs,
      [this](uint32_t idx, ColumnId value) { return by_lhs_[idx].rhs < value; });
  const auto last = std::upper_bound(
      by_rhs_.begin(), by_rhs_.end(), rhs,
      [this](ColumnId value, uint32_t idx) { return value < by_lhs_[idx].rhs; });
  std::vector<ImplicationRule> out;
  out.reserve(static_cast<size_t>(last - first));
  for (auto it = first; it != last; ++it) out.push_back(by_lhs_[*it]);
  return out;
}

std::vector<ImplicationRule> RuleIndexSnapshot::TopK(size_t k) const {
  const size_t n = k == 0 ? by_conf_.size() : std::min(k, by_conf_.size());
  std::vector<ImplicationRule> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(by_lhs_[by_conf_[i]]);
  return out;
}

RuleIndex::RuleIndex()
    : snapshot_(RuleIndexSnapshot::Build(ImplicationRuleSet(), 0)) {}

std::shared_ptr<const RuleIndexSnapshot> RuleIndex::snapshot() const {
  MutexLock lock(mu_);
  return snapshot_;
}

void RuleIndex::Publish(const ImplicationRuleSet& rules) {
  // publish_mu_ serializes writers so the generation read below cannot
  // be stale; building outside mu_ keeps the O(n log n) Build off the
  // readers' lock — snapshot() only ever waits for the pointer swap.
  MutexLock publish_lock(publish_mu_);
  uint64_t next_generation = 0;
  {
    MutexLock lock(mu_);
    next_generation = snapshot_->generation() + 1;
  }
  std::shared_ptr<const RuleIndexSnapshot> built =
      RuleIndexSnapshot::Build(rules, next_generation);
  MutexLock lock(mu_);
  snapshot_ = std::move(built);
}

}  // namespace dmc
