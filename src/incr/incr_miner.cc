#include "incr/incr_miner.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/thresholds.h"
#include "observe/metrics.h"
#include "observe/trace.h"
#include "util/bitvector.h"
#include "rules/rule.h"
#include "util/failpoint.h"
#include "util/stopwatch.h"

namespace dmc {

namespace {

// Unordered pair {u, v} (u != v) packed as (min << 32) | max, so pair
// sets are plain sorted uint64 vectors — deterministic and binary-
// searchable without hash containers.
uint64_t PairKey(ColumnId u, ColumnId v) {
  const ColumnId lo = u < v ? u : v;
  const ColumnId hi = u < v ? v : u;
  return (uint64_t{lo} << 32) | hi;
}

// Distinct unordered column pairs co-occurring in some delta row, in
// first-seen order. Quadratic in row length — the delta is the small
// side of an append, and the batch engines remain the right tool for
// bulk loads. Dense deltas repeat the same pairs across rows, so for
// narrow matrices a width x width seen-byte table dedups in O(1) per
// occurrence; sorting the raw occurrence list would dominate the whole
// append on correlated data.
std::vector<uint64_t> CoOccurringDeltaPairs(const BinaryMatrix& delta) {
  std::vector<uint64_t> keys;
  const size_t width = delta.num_columns();
  constexpr size_t kSeenTableMaxColumns = 4096;  // 16 MB of flags
  if (width <= kSeenTableMaxColumns) {
    std::vector<uint8_t> seen(width * width, 0);
    for (RowId r = 0; r < delta.num_rows(); ++r) {
      const auto row = delta.Row(r);
      for (size_t i = 0; i < row.size(); ++i) {
        for (size_t j = i + 1; j < row.size(); ++j) {
          uint8_t& flag = seen[row[i] * width + row[j]];
          if (flag) continue;
          flag = 1;
          keys.push_back(PairKey(row[i], row[j]));
        }
      }
    }
    return keys;
  }
  for (RowId r = 0; r < delta.num_rows(); ++r) {
    const auto row = delta.Row(r);
    for (size_t i = 0; i < row.size(); ++i) {
      for (size_t j = i + 1; j < row.size(); ++j) {
        keys.push_back(PairKey(row[i], row[j]));
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

// Membership set for the pairs the update pass already decided, probed
// once per regen candidate. Narrow matrices get a width x width byte
// table (one predictable load per probe); wide ones fall back to a
// sorted key vector + binary search to keep memory bounded.
class DecidedPairs {
 public:
  static constexpr ColumnId kTableMaxColumns = 4096;  // 16 MB of flags

  DecidedPairs(ColumnId width, size_t expected) : width_(width) {
    if (width_ <= kTableMaxColumns) {
      table_.assign(size_t{width_} * width_, 0);
    } else {
      keys_.reserve(expected);
    }
  }

  void Add(ColumnId u, ColumnId v) {
    if (!table_.empty()) {
      table_[Index(u, v)] = 1;
    } else {
      keys_.push_back(PairKey(u, v));
    }
  }

  /// Call once between the update pass (Add) and the regen pass
  /// (Contains); no-op for the table representation.
  void Seal() {
    if (table_.empty()) std::sort(keys_.begin(), keys_.end());
  }

  bool Contains(ColumnId u, ColumnId v) const {
    if (!table_.empty()) return table_[Index(u, v)] != 0;
    return std::binary_search(keys_.begin(), keys_.end(), PairKey(u, v));
  }

 private:
  size_t Index(ColumnId u, ColumnId v) const {
    const ColumnId lo = u < v ? u : v;
    const ColumnId hi = u < v ? v : u;
    return size_t{lo} * width_ + hi;
  }

  ColumnId width_;
  std::vector<uint8_t> table_;
  std::vector<uint64_t> keys_;
};

void RecordAppendMetrics(MetricsRegistry* metrics,
                         const IncrAppendStats& stats) {
  if (metrics == nullptr) return;
  metrics->IncrCounter("dmc.incr.batches");
  metrics->IncrCounter("dmc.incr.rows_appended", stats.rows_appended);
  metrics->IncrCounter("dmc.incr.candidates_killed",
                       stats.candidates_killed);
  metrics->IncrCounter("dmc.incr.candidates_revived",
                       stats.candidates_revived);
  metrics->RecordTimer("dmc.incr.append_seconds", stats.seconds);
}

void RecordEvictMetrics(MetricsRegistry* metrics,
                        const IncrEvictStats& stats) {
  if (metrics == nullptr) return;
  metrics->IncrCounter("dmc.incr.evict.batches");
  metrics->IncrCounter("dmc.incr.evict.rows_evicted", stats.rows_evicted);
  metrics->IncrCounter("dmc.incr.evict.candidates_killed",
                       stats.candidates_killed);
  metrics->IncrCounter("dmc.incr.evict.candidates_regenerated",
                       stats.candidates_regenerated);
  metrics->RecordTimer("dmc.incr.evict.seconds", stats.seconds);
}

// Distinct unordered pairs with at least one column losing ones to the
// evicted prefix. Only such pairs can resurrect: evicting a row where
// neither column is 1 changes nothing for the pair, and evicting both-1
// rows can never flip a failing pair to passing (DESIGN §5.10) — a
// resurrection needs an evicted row where exactly one column is 1, i.e.
// one column with prefix ones. Each pair is emitted exactly once (a
// pair losing ones on both sides comes from its lower endpoint), so no
// sort/unique dedup pass is needed — on dense windows nearly every
// column loses ones and that sort would dominate the eviction.
std::vector<uint64_t> EvictCandidatePairs(
    const std::vector<uint32_t>& prefix_ones, ColumnId width) {
  std::vector<uint64_t> keys;
  for (ColumnId t = 0; t < width; ++t) {
    if (prefix_ones[t] == 0) continue;
    for (ColumnId c = 0; c < width; ++c) {
      if (c == t) continue;
      if (c < t && prefix_ones[c] > 0) continue;
      keys.push_back(PairKey(t, c));
    }
  }
  return keys;
}

// Lazily-built per-column bitmaps of the rows at index >= bound (bit i
// == row bound + i): the surviving window during EvictBatch, the fresh
// delta during AppendBatch. Each per-pair exact count collapses to one
// word-parallel AndNotCount instead of a posting merge — the update and
// regen passes together push tens of thousands of pairs through those
// counts on dense windows. The transposition is worth it only while the
// full-width estimate stays small; past the budget (or on an empty
// suffix) the passes fall back to posting merges.
class SuffixBitmapCache {
 public:
  static constexpr size_t kBudgetBytes = size_t{32} << 20;

  SuffixBitmapCache(const ColumnPostings& postings, uint32_t bound,
                    uint64_t new_rows)
      : postings_(postings), bound_(bound), new_rows_(new_rows) {
    const size_t words = (new_rows + 63) / 64;
    usable_ =
        new_rows > 0 && words * 8 * postings.num_columns() <= kBudgetBytes;
    if (usable_) {
      bitmaps_.resize(postings.num_columns());
      built_.assign(postings.num_columns(), 0);
    }
  }

  bool usable() const { return usable_; }

  /// Misses of the oriented pair over the surviving window:
  /// |suffix(lhs) \ suffix(rhs)|.
  uint32_t SuffixMisses(ColumnId lhs, ColumnId rhs) {
    return static_cast<uint32_t>(Get(lhs).AndNotCount(Get(rhs)));
  }

  /// SuffixMisses with an early exit once the count exceeds `cap`;
  /// exact when the result is <= cap (see BitVector::AndNotCountCapped).
  uint32_t SuffixMissesCapped(ColumnId lhs, ColumnId rhs, uint32_t cap) {
    return static_cast<uint32_t>(Get(lhs).AndNotCountCapped(Get(rhs), cap));
  }

 private:
  const BitVector& Get(ColumnId c) {
    if (!built_[c]) {
      BitVector bits(new_rows_);
      postings_.rows(c).ForEach([&](uint32_t id) {
        if (id >= bound_) bits.Set(id - bound_);
      });
      bitmaps_[c] = std::move(bits);
      built_[c] = 1;
    }
    return bitmaps_[c];
  }

  const ColumnPostings& postings_;
  uint32_t bound_;
  uint64_t new_rows_;
  bool usable_ = false;
  std::vector<BitVector> bitmaps_;
  std::vector<uint8_t> built_;
};

// A held rule read back: the unordered pair it counts and its exact
// hits at the previous boundary.
struct HeldPair {
  ColumnId u;
  ColumnId v;
  uint32_t hits;
};

// A pair oriented sparser-first under the new ones counts, with its
// exact budget.
struct OrientedPair {
  ColumnId lhs;
  ColumnId rhs;
  uint32_t lhs_ones;
  uint32_t rhs_ones;
  int64_t budget;

  /// The exact hit floor: the fewest hits that keep misses in budget.
  int64_t MinHits() const { return static_cast<int64_t>(lhs_ones) - budget; }
  /// The rule test. hits >= 1 mirrors the batch engines' candidate
  /// seeding: columns that never co-occur in the window never form a
  /// rule there.
  bool Qualifies(uint32_t hits) const {
    return hits >= 1 && static_cast<int64_t>(lhs_ones - hits) <= budget;
  }
};

// What a rule kind supplies to the incremental passes, and all that
// differs between DMC-imp and DMC-sim here: the exact miss budget of a
// pair oriented sparser-first, the record built for a pair that clears
// it, and the pair and hits read back from a held record. One instance
// serves one batch; `max_ones` bounds every ones count it is asked
// about.
template <typename Kind>
class PairRules;

template <>
class PairRules<ImplicationKind> {
 public:
  // MaxMissesForConfidence for every reachable ones count: the passes
  // evaluate up to two budgets per examined pair, and on dense windows
  // that is T x width floating-point floors per batch — one small table
  // turns them into indexed loads.
  PairRules(double minconf, uint64_t max_ones) : budgets_(max_ones + 1) {
    for (uint64_t n = 0; n <= max_ones; ++n) {
      budgets_[n] = MaxMissesForConfidence(static_cast<uint32_t>(n), minconf);
    }
  }

  int64_t Budget(uint32_t lhs_ones, uint32_t) const {
    return budgets_[lhs_ones];
  }
  static HeldPair Held(const ImplicationRule& r) {
    return {r.lhs, r.rhs, r.hits()};
  }
  static ImplicationRule Make(const OrientedPair& p, uint32_t hits) {
    return ImplicationRule{p.lhs, p.rhs, p.lhs_ones, p.lhs_ones - hits};
  }

 private:
  std::vector<int64_t> budgets_;
};

template <>
class PairRules<SimilarityKind> {
 public:
  PairRules(double minsim, uint64_t) : minsim_(minsim) {}

  int64_t Budget(uint32_t ones_a, uint32_t ones_b) const {
    return MaxMissesForSimilarity(ones_a, ones_b, minsim_);
  }
  static HeldPair Held(const SimilarityPair& p) {
    return {p.a, p.b, p.intersection};
  }
  static SimilarityPair Make(const OrientedPair& p, uint32_t hits) {
    return SimilarityPair{p.lhs, p.rhs, p.lhs_ones, p.rhs_ones, hits};
  }

 private:
  double minsim_;
};

template <typename Kind>
OrientedPair Orient(const PairRules<Kind>& kind, ColumnId u, ColumnId v,
                    const std::vector<uint32_t>& ones) {
  if (!SparserFirst(ones[u], u, ones[v], v)) std::swap(u, v);
  return {u, v, ones[u], ones[v], kind.Budget(ones[u], ones[v])};
}

// Miss-monotonicity screens: the most hits a pair that was NOT held at
// the old boundary (ones counts old_u, old_v) can have had. The engine
// decided it there under the old counts, sparser column first, so its
// hits fell below that hit floor — and a pair with an empty column had
// none. Appends add hits only through co-occurrences, and evictions
// only take hits away, so each regeneration pass rules a pair out on
// this ceiling before any full-list intersection.
template <typename Kind>
int64_t OldHitCeiling(const PairRules<Kind>& kind, uint32_t old_u,
                      uint32_t old_v) {
  const uint32_t lo = std::min(old_u, old_v);
  if (lo == 0) return 0;
  return static_cast<int64_t>(lo) - kind.Budget(lo, std::max(old_u, old_v)) -
         1;
}

template <typename Kind>
Status ValidateThreshold(const typename Kind::Options& options) {
  const double threshold = options.*Kind::kThreshold;
  if (!(threshold > 0.0) || threshold > 1.0) {
    return InvalidArgumentError(std::string(Kind::kThresholdName) +
                                " must be in (0, 1]");
  }
  return Status::OK();
}

}  // namespace

template <typename Kind>
IncrementalMiner<Kind>::IncrementalMiner(Options options,
                                         uint64_t window_rows,
                                         ColumnId num_columns)
    : options_(std::move(options)),
      window_rows_(window_rows),
      postings_(num_columns) {}

template <typename Kind>
StatusOr<IncrementalMiner<Kind>> IncrementalMiner<Kind>::FromBatchMine(
    const BinaryMatrix& initial, const Options& options, uint64_t window_rows,
    MiningStats* stats) {
  DMC_ASSIGN_OR_RETURN(RuleSet rules,
                       MineMatrix<Kind>(initial, options, nullptr, stats));
  IncrementalMiner miner(options, window_rows, initial.num_columns());
  miner.postings_.Append(initial);
  miner.rules_ = std::move(rules);
  miner.cumulative_.rows_total = initial.num_rows();
  DMC_RETURN_IF_ERROR(miner.SlideToWindow(nullptr));
  return miner;
}

template <typename Kind>
Status IncrementalMiner<Kind>::SlideToWindow(IncrEvictStats* stats) {
  IncrEvictStats local;
  if (window_rows_ > 0 && num_rows() > window_rows_) {
    const uint64_t overflow = num_rows() - window_rows_;
    DMC_RETURN_IF_ERROR(EvictBatch(overflow, &local));
    MetricsRegistry* metrics = options_.policy.observe.metrics;
    if (metrics != nullptr) {
      metrics->IncrCounter("dmc.window.slides");
      metrics->IncrCounter("dmc.window.rows_evicted", overflow);
    }
  }
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

template <typename Kind>
Status IncrementalMiner<Kind>::AppendBatch(const BinaryMatrix& delta,
                                           IncrAppendStats* stats,
                                           IncrEvictStats* slide) {
  DMC_RETURN_IF_ERROR(Absorb(delta, stats));
  return SlideToWindow(slide);
}

template <typename Kind>
Status IncrementalMiner<Kind>::Absorb(const BinaryMatrix& delta,
                                      IncrAppendStats* stats) {
  DMC_RETURN_IF_ERROR(ValidateThreshold<Kind>(options_));
  if (fail::Enabled()) {
    DMC_RETURN_IF_ERROR(fail::InjectStatus("incr.append"));
  }
  const ObserveContext& obs = options_.policy.observe;
  ScopedSpan batch_span(obs.trace, "incr/append_batch", obs.trace_lane);
  Stopwatch timer;
  IncrAppendStats local;
  local.rows_appended = delta.num_rows();

  // Snapshot the per-column posting sizes: the entries past these
  // boundaries are exactly the delta's contribution.
  const ColumnId width =
      std::max(postings_.num_columns(), delta.num_columns());
  std::vector<uint32_t> old_ones(width);
  for (ColumnId c = 0; c < width; ++c) old_ones[c] = postings_.ones(c);
  const uint32_t rows_before = static_cast<uint32_t>(postings_.num_rows());
  postings_.Append(delta);
  std::vector<uint32_t> new_ones(width);
  for (ColumnId c = 0; c < width; ++c) new_ones[c] = postings_.ones(c);
  SuffixBitmapCache bitmaps(postings_, rows_before,
                            postings_.num_rows() - rows_before);
  // |delta rows where u and v are both 1|: the posting suffixes alone.
  const auto delta_hits = [&](ColumnId u, ColumnId v) -> uint32_t {
    return bitmaps.usable()
               ? new_ones[u] - old_ones[u] - bitmaps.SuffixMisses(u, v)
               : postings_.SuffixIntersectOnes(u, old_ones[u], v,
                                               old_ones[v]);
  };
  const PairRules<Kind> kind(options_.*Kind::kThreshold, num_rows());

  // Update pass: re-decide every held rule under the new counts. The
  // stored rule carries the exact previous-boundary counts, so the new
  // intersection is old intersection + |delta co-occurrences|, and the
  // suffix intersection touches only the delta's rows.
  DecidedPairs decided(width, rules_.size());
  RuleSet next;
  {
    ScopedSpan span(obs.trace, "incr/update", obs.trace_lane);
    for (const auto& rule : rules_) {
      ++local.rules_updated;
      const HeldPair held = PairRules<Kind>::Held(rule);
      decided.Add(held.u, held.v);
      const uint32_t hits = held.hits + delta_hits(held.u, held.v);
      const OrientedPair p = Orient(kind, held.u, held.v, new_ones);
      if (p.Qualifies(hits)) {
        next.Add(kind.Make(p, hits));
      } else {
        ++local.candidates_killed;
      }
    }
  }
  decided.Seal();

  // Regeneration pass: only pairs with a delta co-occurrence can newly
  // clear the threshold (miss monotonicity; see incr_miner.h), and the
  // update pass already decided the held ones exactly.
  {
    ScopedSpan span(obs.trace, "incr/regen", obs.trace_lane);
    for (const uint64_t key : CoOccurringDeltaPairs(delta)) {
      const ColumnId u = static_cast<ColumnId>(key >> 32);
      const ColumnId v = static_cast<ColumnId>(key & 0xffffffffu);
      if (decided.Contains(u, v)) continue;
      ++local.delta_pairs_examined;
      const OrientedPair p = Orient(kind, u, v, new_ones);
      // §5.1 density screen: a negative budget means ones(lhs)/ones(rhs)
      // is already below the threshold — no intersection needed.
      if (p.budget < 0) continue;
      // Only the delta's co-occurrences, countable from the posting
      // suffixes, can lift the pair from its old hit ceiling to the new
      // floor — so most pairs skip the full-list intersection.
      if (OldHitCeiling(kind, old_ones[u], old_ones[v]) + delta_hits(u, v) <
          p.MinHits()) {
        continue;
      }
      const uint32_t hits = postings_.IntersectOnes(p.lhs, p.rhs);
      if (p.Qualifies(hits)) {
        next.Add(kind.Make(p, hits));
        ++local.candidates_revived;
      }
    }
  }

  next.Canonicalize();
  rules_ = std::move(next);

  ++cumulative_.batches;
  cumulative_.rows_total += local.rows_appended;
  cumulative_.candidates_killed += local.candidates_killed;
  cumulative_.candidates_revived += local.candidates_revived;
  local.seconds = timer.ElapsedSeconds();
  RecordAppendMetrics(obs.metrics, local);
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

template <typename Kind>
Status IncrementalMiner<Kind>::EvictBatch(uint64_t k, IncrEvictStats* stats) {
  DMC_RETURN_IF_ERROR(ValidateThreshold<Kind>(options_));
  if (k > num_rows()) {
    return InvalidArgumentError("EvictBatch: cannot evict more rows than "
                                "the window holds");
  }
  if (fail::Enabled()) {
    DMC_RETURN_IF_ERROR(fail::InjectStatus("incr.evict"));
  }
  IncrEvictStats local;
  local.rows_evicted = k;
  if (k == 0) {
    if (stats != nullptr) *stats = local;
    return Status::OK();
  }
  const ObserveContext& obs = options_.policy.observe;
  ScopedSpan batch_span(obs.trace, "incr/evict_batch", obs.trace_lane);
  Stopwatch timer;

  // All decisions run against the pre-trim postings: the prefix below
  // `bound` is exactly the evicted rows' contribution, and the suffix at
  // index >= prefix_ones[c] is exactly the surviving window.
  const uint32_t bound = static_cast<uint32_t>(k);
  const ColumnId width = postings_.num_columns();
  std::vector<uint32_t> old_ones(width);
  std::vector<uint32_t> prefix_ones(width);
  std::vector<uint32_t> new_ones(width);
  for (ColumnId c = 0; c < width; ++c) {
    old_ones[c] = postings_.ones(c);
    prefix_ones[c] = postings_.PrefixOnes(c, bound);
    new_ones[c] = old_ones[c] - prefix_ones[c];
  }
  SuffixBitmapCache bitmaps(postings_, bound, num_rows() - k);
  const PairRules<Kind> kind(options_.*Kind::kThreshold, num_rows());

  // Update pass: every held rule loses exactly the evicted prefix's
  // co-occurrences, then is re-oriented and re-tested under the new
  // counts.
  DecidedPairs decided(width, rules_.size());
  RuleSet next;
  {
    ScopedSpan span(obs.trace, "incr/evict_update", obs.trace_lane);
    for (const auto& rule : rules_) {
      ++local.rules_updated;
      const HeldPair held = PairRules<Kind>::Held(rule);
      decided.Add(held.u, held.v);
      const uint32_t hits =
          bitmaps.usable()
              ? new_ones[held.u] - bitmaps.SuffixMisses(held.u, held.v)
              : held.hits -
                    postings_.PrefixIntersectOnes(held.u, held.v, bound);
      const OrientedPair p = Orient(kind, held.u, held.v, new_ones);
      if (p.Qualifies(hits)) {
        next.Add(kind.Make(p, hits));
      } else {
        ++local.candidates_killed;
      }
    }
  }
  decided.Seal();

  // Regeneration pass: only pairs with an evicted one in at least one
  // column can newly clear the threshold (the dual of append-side miss
  // monotonicity; see the header), and the update pass already decided
  // the held ones exactly.
  {
    ScopedSpan span(obs.trace, "incr/evict_regen", obs.trace_lane);
    for (const uint64_t key : EvictCandidatePairs(prefix_ones, width)) {
      const ColumnId u = static_cast<ColumnId>(key >> 32);
      const ColumnId v = static_cast<ColumnId>(key & 0xffffffffu);
      if (decided.Contains(u, v)) continue;
      ++local.regen_pairs_examined;
      if (new_ones[u] == 0 || new_ones[v] == 0) continue;
      const OrientedPair p = Orient(kind, u, v, new_ones);
      // §5.1 density screen, unchanged under eviction.
      if (p.budget < 0) continue;
      // Dual monotonicity screen: eviction only shrinks intersections,
      // so the pair can qualify now only if eviction lowered the
      // effective hit floor under its old hit ceiling — a counts-only
      // test.
      if (std::max<int64_t>(p.MinHits(), 1) >
          std::max<int64_t>(OldHitCeiling(kind, old_ones[u], old_ones[v]),
                            0)) {
        continue;
      }
      // The capped form is exact whenever the pair qualifies (misses <=
      // budget); an over-cap partial count only feeds the failing branch.
      const uint32_t hits =
          bitmaps.usable()
              ? p.lhs_ones -
                    bitmaps.SuffixMissesCapped(
                        p.lhs, p.rhs, static_cast<uint32_t>(p.budget))
              : postings_.SuffixIntersectOnes(u, prefix_ones[u], v,
                                              prefix_ones[v]);
      if (p.Qualifies(hits)) {
        next.Add(kind.Make(p, hits));
        ++local.candidates_regenerated;
      }
    }
  }

  next.Canonicalize();
  postings_.EvictPrefix(k);
  rules_ = std::move(next);

  ++cumulative_.evict_batches;
  cumulative_.rows_evicted += k;
  cumulative_.candidates_killed += local.candidates_killed;
  cumulative_.candidates_revived += local.candidates_regenerated;
  local.seconds = timer.ElapsedSeconds();
  RecordEvictMetrics(obs.metrics, local);
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

template class IncrementalMiner<ImplicationKind>;
template class IncrementalMiner<SimilarityKind>;

}  // namespace dmc
