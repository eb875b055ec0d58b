#include "rules/rule_index.h"

#include <algorithm>
#include <utility>

#include "rules/rule_codec.h"
#include "util/atomic_io.h"
#include "util/failpoint.h"
#include "util/sealed_file.h"

namespace dmc {

namespace {

constexpr std::string_view kMagic = "DMCRIDX\n";
constexpr uint32_t kVersion = 1;

}  // namespace

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

std::string RuleIndexSnapshot::Serialize() const {
  std::string out(kMagic);
  AppendLE<uint32_t>(&out, kVersion);
  AppendLE<uint64_t>(&out, generation_);
  AppendLE<uint64_t>(&out, static_cast<uint64_t>(by_lhs_.size()));
  for (const ImplicationRule& r : by_lhs_) AppendRecord(&out, r);
  AppendSeal(&out);
  return out;
}

StatusOr<std::shared_ptr<const RuleIndexSnapshot>> RuleIndexSnapshot::Deserialize(
    const std::string& data, const std::string& context) {
  const std::string what = "rule index " + context;
  // The fixed fields: version, generation, rule count.
  DMC_RETURN_IF_ERROR(CheckSealedHeader(data, kMagic, 4 + 8 + 8, what));
  size_t offset = kMagic.size();
  uint32_t version = 0;
  (void)ReadLE(data, &offset, &version);
  if (version != kVersion) {
    return DataLossError(what + ": unsupported version " +
                         std::to_string(version));
  }
  uint64_t generation = 0;
  uint64_t count = 0;
  (void)ReadLE(data, &offset, &generation);  // length pre-checked above
  (void)ReadLE(data, &offset, &count);
  std::vector<ImplicationRule> rules;
  if (!ReadRecords(data, &offset, count, &rules)) {
    return DataLossError(what + ": rule count " + std::to_string(count) +
                         " exceeds file size");
  }
  DMC_RETURN_IF_ERROR(CheckSeal(data, offset, what));
  return Build(ImplicationRuleSet(std::move(rules)), generation);
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

Status RuleIndex::Save(const std::string& path) const {
  if (fail::Enabled()) {
    DMC_RETURN_IF_ERROR(fail::InjectStatus("rule_index.save"));
  }
  return AtomicWriteFile(path, snapshot()->Serialize());
}

Status RuleIndex::Load(const std::string& path) {
  if (fail::Enabled()) {
    DMC_RETURN_IF_ERROR(fail::InjectStatus("rule_index.load"));
  }
  DMC_ASSIGN_OR_RETURN(const std::string data,
                       ReadWholeFile(path, "rule index"));
  DMC_ASSIGN_OR_RETURN(std::shared_ptr<const RuleIndexSnapshot> snapshot,
                       RuleIndexSnapshot::Deserialize(data, path));
  MutexLock publish_lock(publish_mu_);
  MutexLock lock(mu_);
  snapshot_ = std::move(snapshot);
  return Status::OK();
}

}  // namespace dmc
