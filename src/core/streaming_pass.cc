#include "core/streaming_pass.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>

#include "core/dmc_imp.h"
#include "core/kernels.h"
#include "observe/progress.h"
#include "observe/stats_export.h"
#include "postings/posting_container.h"
#include "util/logging.h"

namespace dmc {

namespace {

// A per-column miss budget as the unsigned 32-bit value the vector sweep
// compares against. Negative budgets (possible only while no list
// exists) clamp to 0: a miss then always kills, a hit never does — the
// same decisions the int64 comparison makes.
uint32_t ClampBudget(int64_t budget) {
  if (budget < 0) return 0;
  if (budget > static_cast<int64_t>(UINT32_MAX)) return UINT32_MAX;
  return static_cast<uint32_t>(budget);
}

}  // namespace

ImplicationKind::ImplicationKind(const std::vector<uint32_t>& ones,
                                 double minconf, const DmcPolicy&, bool)
    : ones_(ones.data()), budget_(ones.size()) {
  for (size_t c = 0; c < ones.size(); ++c) {
    budget_[c] = MaxMissesForConfidence(ones[c], minconf);
  }
}

size_t ImplicationKind::Sweep(ColumnId cj,
                              const MissCounterTable::MutableList& list,
                              const uint8_t* row_mask) const {
  return kernels::ImpVectorSweep(list.cand, list.miss, list.size, row_mask,
                                 ClampBudget(budget_[cj]));
}

SimilarityKind::SimilarityKind(const std::vector<uint32_t>& ones,
                               double minsim, const DmcPolicy& policy,
                               bool vector_sweep)
    : ones_(ones.data()),
      minsim_(minsim),
      one_plus_s_(1.0 + minsim),
      budget_eps_((1.0 + minsim) * kThresholdEpsilon),
      column_density_pruning_(policy.column_density_pruning),
      max_hits_pruning_(policy.max_hits_pruning),
      vector_sweep_(vector_sweep),
      col_budget_(ones.size()),
      s_ones_(ones.size()) {
  for (size_t c = 0; c < ones.size(); ++c) {
    col_budget_[c] = ColumnMaxMissesForSimilarity(ones[c], minsim);
    s_ones_[c] = minsim * static_cast<double>(ones[c]);
  }
  // rem_[c] = ones[c] - cnt[c], kept current by Counted so the sweep
  // gathers one array per candidate.
  if (vector_sweep_) rem_.assign(ones.begin(), ones.end());
}

size_t SimilarityKind::Sweep(ColumnId cj,
                             const MissCounterTable::MutableList& list,
                             const uint8_t* row_mask) const {
  return kernels::SimVectorSweep(list.cand, list.miss, list.size, row_mask,
                                 {rem_.data(), rem_[cj]});
}

int32_t SimilarityKind::SlackBudget(ColumnId cj, ColumnId ck) const {
  // The quotient is within one of B; the exact multiply-form test then
  // settles it.
  const double q = std::floor(
      (static_cast<double>(ones_[cj]) - s_ones_[ck] + budget_eps_) /
      one_plus_s_);
  int64_t b = static_cast<int64_t>(std::clamp(q, -1.0, double{INT32_MAX}));
  while (b < INT32_MAX && WithinPairBudget(cj, ck, b + 1)) ++b;
  while (b >= 0 && !WithinPairBudget(cj, ck, b)) --b;
  return static_cast<int32_t>(b);
}

template <typename Kind>
StreamingPass<Kind>::StreamingPass(Config config)
    : config_(std::move(config)),
      kernel_(ResolveKernel(config_.policy.kernel)),
      use_vector_(kernel_ == MergeKernel::kSimd &&
                  Kind::VectorSweepApplies(config_.policy) &&
                  kernels::PreferVectorSweep(
                      config_.num_columns, config_.total_rows,
                      std::accumulate(config_.ones.begin(),
                                      config_.ones.end(), uint64_t{0}))),
      kind_(config_.ones, config_.threshold, config_.policy, use_vector_),
      tracker_(config_.tracker != nullptr ? config_.tracker : &own_tracker_),
      table_(config_.num_columns, config_.bytes_per_entry, tracker_),
      cnt_(config_.num_columns, 0) {
  DMC_CHECK_EQ(config_.ones.size(), config_.num_columns);
  if (!config_.antecedents.empty()) {
    DMC_CHECK_EQ(config_.antecedents.size(), config_.num_columns);
  }
  DMC_CHECK_GT(config_.threshold, 0.0);
  DMC_CHECK_LE(config_.threshold, 1.0);
  if (use_vector_) table_.EnableSidecars();
}

template <typename Kind>
void StreamingPass<Kind>::ProcessRow(std::span<const ColumnId> row) {
  DMC_CHECK(!finished_);
  DMC_CHECK_LT(rows_seen_, config_.total_rows);

  if (stop_.ok() &&
      !CheckProgress(config_.policy.observe, config_.phase, rows_seen_,
                     config_.total_rows, table_.total_entries(),
                     table_.bytes())) {
    stop_ = CancelledError("mine cancelled in " + std::string(config_.phase) +
                           " after " + std::to_string(rows_seen_) + " rows");
  }
  if (!stop_.ok()) {
    // Keep counting rows so the caller's replay loop stays consistent,
    // but stop doing any work; Finish() reports the cancellation.
    ++rows_seen_;
    return;
  }

  if (!bitmap_mode_ && config_.policy.bitmap_fallback &&
      config_.total_rows - rows_seen_ <=
          config_.policy.bitmap_max_remaining_rows &&
      table_.bytes() >= config_.policy.memory_threshold_bytes) {
    bitmap_mode_ = true;
  }

  if (bitmap_mode_) {
    tail_.emplace_back(row.begin(), row.end());
    ++rows_seen_;
    return;
  }

  // Step 3(a): update/extend every candidate list touched by this row.
  // The row's mask is installed at its first merge, so a row that merges
  // nothing (most rows of a pass that owns few antecedents) costs no mask
  // writes. kLegacy merges by two-pointer walks and needs no mask.
  bool row_installed = kernel_ == MergeKernel::kLegacy;
  for (ColumnId cj : row) {
    if (!Owns(cj)) continue;  // not this pass's antecedent
    const bool add = static_cast<int64_t>(cnt_[cj]) <= kind_.ColumnBudget(cj);
    if (!add && !table_.HasList(cj)) continue;
    if (!row_installed) {
      scratch_.BeginRow(row, config_.num_columns, use_vector_);
      row_installed = true;
    }
    if (add) {
      MergeWithAdd(cj, row);
    } else {
      MergeMissOnly(cj, row);
    }
  }
  // Step 3(b): bump counters; flush columns that are complete.
  for (ColumnId cj : row) {
    ++cnt_[cj];
    kind_.Counted(cj);
    if (cnt_[cj] == config_.ones[cj] && table_.HasList(cj)) {
      FlushColumn(cj);
    }
  }
  RecordHistory();
  ++rows_seen_;
}

// Case cnt(cj) <= column budget: merge cand(cj) with the row. Row-only
// qualifying columns the kind accepts join with miss = cnt(cj) (they
// missed all earlier occurrences of cj — exact, because a prior
// co-occurrence would have added them already); entries the kind's
// predicates reject on this row's hit or miss are dropped.
template <typename Kind>
void StreamingPass<Kind>::MergeWithAdd(ColumnId cj,
                                       std::span<const ColumnId> row) {
  const uint32_t base_miss = cnt_[cj];
  if (use_vector_) {
    VectorAddMerge(cj, row, base_miss);
    return;
  }
  const auto pred = kind_.ForList(cj, base_miss, cnt_.data());
  const auto accept_new = [this, cj, pred](ColumnId ck) {
    return Qualifies(ck, cj) && pred.AcceptNew(ck);
  };
  const auto keep_on_hit = [pred](ColumnId ck, uint32_t miss) {
    return pred.KeepOnHit(ck, miss);
  };
  const auto keep_on_miss = [pred](ColumnId ck, uint32_t new_miss) {
    return pred.KeepOnMiss(ck, new_miss);
  };
  if (kernel_ == MergeKernel::kLegacy) {
    LegacyAddMerge(table_, cj, row, base_miss, scratch_, accept_new,
                   keep_on_hit, keep_on_miss);
  } else {
    InPlaceAddMerge(table_, cj, row, base_miss, scratch_, accept_new,
                    keep_on_hit, keep_on_miss);
  }
}

// Case cnt(cj) > column budget: no additions are possible any more; only
// count misses against existing candidates.
template <typename Kind>
void StreamingPass<Kind>::MergeMissOnly(ColumnId cj,
                                        std::span<const ColumnId> row) {
  if (use_vector_) {
    const MissCounterTable::MutableList list = table_.Mutable(cj);
    if (list.size == 0) return;
    const size_t w = kind_.Sweep(cj, list, scratch_.row_mask.data());
    if (w != list.size) table_.SetSize(cj, w);
    return;
  }
  const auto pred = kind_.ForList(cj, cnt_[cj], cnt_.data());
  const auto keep_on_hit = [pred](ColumnId ck, uint32_t miss) {
    return pred.KeepOnHit(ck, miss);
  };
  const auto keep_on_miss = [pred](ColumnId ck, uint32_t new_miss) {
    return pred.KeepOnMiss(ck, new_miss);
  };
  if (kernel_ == MergeKernel::kLegacy) {
    LegacyMissMerge(table_, cj, row, scratch_, keep_on_hit, keep_on_miss);
  } else {
    InPlaceMissMerge(table_, cj, scratch_, keep_on_hit, keep_on_miss);
  }
}

// MergeWithAdd on the block-typed vector path: the kind's entry sweep
// runs the list, and joiners are found word-wise against the list's
// decided-set sidecar instead of by row-mask 1 -> 2 flagging (gathers
// can't scatter the flag back). A column's bit is set once it has been
// decided for cj: it joined, or Qualifies/AcceptNew rejected it. Both
// are final, so every row column is tested at most once per list, and a
// candidate that dies keeps its bit: an implication candidate dies only
// once cnt(cj) > maxmis(cj), after which no add-merge runs, and a dead
// similarity pair would fail AcceptNew, the §5.2 bound at zero hits,
// which only tightens as cnt(cj) and cnt(ck) grow (DESIGN §5.4). A
// joiner enters with the kind's counter for cnt(cj) misses.
template <typename Kind>
void StreamingPass<Kind>::VectorAddMerge(ColumnId cj,
                                         std::span<const ColumnId> row,
                                         uint32_t base_miss) {
  const auto pred = kind_.ForList(cj, base_miss, cnt_.data());
  const uint64_t* rb = scratch_.row_bits.data();
  const size_t words = scratch_.row_bits.size();
  if (!table_.HasList(cj)) {
    scratch_.fresh.clear();
    for (const ColumnId ck : row) {
      if (ck != cj && Qualifies(ck, cj) && pred.AcceptNew(ck)) {
        scratch_.fresh.push_back(ck);
      }
    }
    if (scratch_.fresh.empty()) return;
    table_.Create(cj);
    // Every column of this row, cj included, is now decided.
    std::copy(rb, rb + words, table_.Sidecar(cj));
    const MissCounterTable::MutableList list =
        table_.Reserve(cj, scratch_.fresh.size());
    for (size_t k = 0; k < scratch_.fresh.size(); ++k) {
      list.cand[k] = scratch_.fresh[k];
      list.miss[k] = kind_.Counter(cj, scratch_.fresh[k], base_miss);
    }
    table_.SetSize(cj, scratch_.fresh.size());
    return;
  }
  const MissCounterTable::MutableList list = table_.Mutable(cj);
  const size_t w = kind_.Sweep(cj, list, scratch_.row_mask.data());
  scratch_.fresh.clear();
  uint64_t* sc = table_.Sidecar(cj);
  for (size_t wd = 0; wd < words; ++wd) {
    uint64_t pending = rb[wd] & ~sc[wd];
    if (pending == 0) continue;
    sc[wd] |= pending;
    joiner_tests_ += static_cast<uint64_t>(__builtin_popcountll(pending));
    do {
      const ColumnId cr = static_cast<ColumnId>(
          (wd << 6) + static_cast<unsigned>(__builtin_ctzll(pending)));
      pending &= pending - 1;
      // cj itself was decided when its list was created.
      if (Qualifies(cr, cj) && pred.AcceptNew(cr)) {
        scratch_.fresh.push_back(cr);
      }
    } while (pending != 0);
  }
  if (scratch_.fresh.empty()) {
    if (w != list.size) table_.SetSize(cj, w);
    return;
  }
  MergeJoinersFromBack(table_, cj, w, scratch_.fresh, [&](ColumnId ck) {
    return kind_.Counter(cj, ck, base_miss);
  });
}

// cnt(cj) == ones(cj): every surviving candidate's miss count is final.
// The pair budget binds only with similarity's density pruning off: a
// pair with a negative budget may linger in the list if it never missed.
template <typename Kind>
void StreamingPass<Kind>::FlushColumn(ColumnId cj) {
  const auto list = table_.List(cj);
  for (size_t j = 0; j < list.size; ++j) {
    const uint32_t miss = kind_.Misses(cj, list.cand[j], list.miss[j]);
    if (static_cast<int64_t>(miss) > kind_.PairBudget(cj, list.cand[j])) {
      continue;
    }
    out_.Add(kind_.MakeRule(cj, list.cand[j], miss));
  }
  table_.Release(cj);
}

template <typename Kind>
void StreamingPass<Kind>::RecordHistory() {
  if (config_.memory_history != nullptr) {
    // Per-row *peak*, not end-of-row value: candidate lists can grow and
    // then shrink within one row, and the exported invariant
    // max(memory_history) == peak_counter_bytes must hold exactly.
    config_.memory_history->push_back(tracker_->TakeIntervalPeak());
  }
  if (config_.candidate_history != nullptr) {
    // Same contract for candidates: the intra-row peak, so
    // max(candidate_history) == peak_candidates holds exactly.
    config_.candidate_history->push_back(table_.TakeEntriesIntervalPeak());
  }
}

// Algorithm 4.1 over the collected tail rows.
template <typename Kind>
void StreamingPass<Kind>::RunBitmapPhases() {
  // Per-column posting sets over the tail. The tail indices are appended
  // ascending, so each container seals itself into its cheapest chunk
  // format.
  const size_t tn = tail_.size();
  std::vector<int32_t> bm_index(config_.num_columns, -1);
  std::vector<PostingContainer> bitmaps;
  for (size_t t = 0; t < tn; ++t) {
    for (ColumnId c : tail_[t]) {
      if (bm_index[c] < 0) {
        bm_index[c] = static_cast<int32_t>(bitmaps.size());
        bitmaps.emplace_back();
      }
      bitmaps[bm_index[c]].Append(static_cast<uint32_t>(t));
    }
  }
  for (PostingContainer& p : bitmaps) p.Optimize();

  // Phase 1: columns that can no longer gain candidates. Finish their
  // existing candidates by exact bitmap miss-counting.
  for (ColumnId c = 0; c < config_.num_columns; ++c) {
    if (!table_.HasList(c)) continue;
    if (static_cast<int64_t>(cnt_[c]) <= kind_.ColumnBudget(c)) continue;
    const PostingContainer* bj =
        bm_index[c] >= 0 ? &bitmaps[bm_index[c]] : nullptr;
    const auto list = table_.List(c);
    for (size_t e = 0; e < list.size; ++e) {
      size_t extra = 0;
      if (bj != nullptr) {
        extra = bm_index[list.cand[e]] >= 0
                    ? bj->AndNotCount(bitmaps[bm_index[list.cand[e]]])
                    : bj->cardinality();
      }
      const int64_t total =
          static_cast<int64_t>(kind_.Misses(c, list.cand[e], list.miss[e])) +
          extra;
      if (total <= kind_.PairBudget(c, list.cand[e])) {
        out_.Add(kind_.MakeRule(c, list.cand[e],
                                static_cast<uint32_t>(total)));
      }
    }
    table_.Release(c);
  }

  if constexpr (Kind::kEqualBitmapTail) {
    if (config_.threshold == 1.0) {
      EmitEqualBitmapGroups(bm_index, bitmaps);
      return;
    }
  }

  // Phase 2: columns that may still gain candidates. Count hits over the
  // tail (seeded with the exact head hits of listed candidates) and test
  // every qualifying partner. Hit counts live in a dense per-column
  // array with a touched list for O(touched) reset — the tail is small
  // (<= bitmap_max_remaining_rows), so the sparse walk dominates and a
  // hash map would only add overhead.
  std::vector<uint32_t> hits(config_.num_columns, 0);
  std::vector<uint8_t> seen(config_.num_columns, 0);
  std::vector<ColumnId> touched;
  const auto touch = [&](ColumnId ck) {
    if (!seen[ck]) {
      seen[ck] = 1;
      touched.push_back(ck);
    }
  };
  for (ColumnId c = 0; c < config_.num_columns; ++c) {
    if (!Owns(c) || config_.ones[c] == 0) continue;
    if (static_cast<int64_t>(cnt_[c]) > kind_.ColumnBudget(c)) continue;
    touched.clear();
    if (table_.HasList(c)) {
      const auto list = table_.List(c);
      for (size_t e = 0; e < list.size; ++e) {
        touch(list.cand[e]);
        hits[list.cand[e]] =
            cnt_[c] - kind_.Misses(c, list.cand[e], list.miss[e]);
      }
    }
    if (bm_index[c] >= 0) {
      bitmaps[bm_index[c]].ForEach([&](uint32_t t) {
        for (ColumnId ck : tail_[t]) {
          if (ck != c) {
            touch(ck);
            ++hits[ck];
          }
        }
      });
    }
    for (ColumnId ck : touched) {
      const uint32_t h = hits[ck];
      seen[ck] = 0;
      hits[ck] = 0;
      if (!Qualifies(ck, c)) continue;
      const int64_t misses = static_cast<int64_t>(config_.ones[c]) - h;
      if (misses <= kind_.PairBudget(c, ck)) {
        out_.Add(kind_.MakeRule(c, ck, static_cast<uint32_t>(misses)));
      }
    }
    if (table_.HasList(c)) table_.Release(c);
  }
}

// Identical-column fast path (Algorithm 5.1 step 2): at minsim = 1 every
// phase-2 column has cnt = 0 (its column budget is 0), so its support
// lies entirely in the tail and identical pairs are exactly the
// equal-bitmap groups — "extract those column pairs that have the same
// bitmap instead of counting", as the paper prescribes. Grouping is
// sort-based ((hash, column) pairs), keeping the hot files free of hash
// maps.
template <typename Kind>
void StreamingPass<Kind>::EmitEqualBitmapGroups(
    const std::vector<int32_t>& bm_index,
    const std::vector<PostingContainer>& bitmaps) {
  std::vector<std::pair<uint64_t, ColumnId>> hashed;
  for (ColumnId c = 0; c < config_.num_columns; ++c) {
    if (config_.ones[c] == 0) continue;
    if (static_cast<int64_t>(cnt_[c]) > kind_.ColumnBudget(c)) continue;
    if (table_.HasList(c)) table_.Release(c);
    if (cnt_[c] != 0 || bm_index[c] < 0) continue;
    hashed.emplace_back(bitmaps[bm_index[c]].Hash(), c);
  }
  std::sort(hashed.begin(), hashed.end());
  for (size_t lo = 0; lo < hashed.size();) {
    size_t hi = lo + 1;
    while (hi < hashed.size() && hashed[hi].first == hashed[lo].first) {
      ++hi;
    }
    for (size_t i = lo; i < hi; ++i) {
      for (size_t j = i + 1; j < hi; ++j) {
        const ColumnId ci = hashed[i].second;
        const ColumnId cj = hashed[j].second;
        // The canonical antecedent of an identical pair is the lower
        // id; in sharded runs only its owner emits the pair. Hash
        // collisions are possible, so confirm exact equality.
        if (!Owns(std::min(ci, cj))) continue;
        if (bitmaps[bm_index[ci]] == bitmaps[bm_index[cj]]) {
          out_.Add(kind_.MakeRule(ci, cj, 0));
        }
      }
    }
    lo = hi;
  }
}

template <typename Kind>
StatusOr<typename Kind::RuleSet> StreamingPass<Kind>::Finish() {
  DMC_CHECK(!finished_);
  finished_ = true;
  if (!stop_.ok()) return stop_;
  if (rows_seen_ != config_.total_rows) {
    return FailedPreconditionError(
        "stream ended early: saw " + std::to_string(rows_seen_) +
        " rows, expected " + std::to_string(config_.total_rows));
  }
  const ObserveContext& obs = config_.policy.observe;
  if (bitmap_mode_) {
    Stopwatch bitmap_sw;
    ScopedSpan span(obs.trace, std::string(config_.phase) + "/dmc_bitmap",
                    obs.trace_lane);
    RunBitmapPhases();
    bitmap_seconds_ = bitmap_sw.ElapsedSeconds();
  }
  if (obs.has_progress()) {
    // Final update so watchers see 100%; too late to cancel.
    (void)ReportProgress(obs, config_.phase, rows_seen_, config_.total_rows,
                         table_.total_entries(), table_.bytes());
  }
  return std::move(out_);
}

template class StreamingPass<ImplicationKind>;
template class StreamingPass<SimilarityKind>;

template <typename Kind>
StatusOr<typename Kind::RuleSet> MineMatrix(
    const BinaryMatrix& matrix, const typename Kind::Options& options,
    const std::vector<uint8_t>* lhs_shard, MiningStats* stats) {
  if (lhs_shard != nullptr && lhs_shard->size() != matrix.num_columns()) {
    return InvalidArgumentError("lhs_shard size must match column count");
  }
  MiningStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = MiningStats{};
  const ObserveContext& obs = options.policy.observe;

  Stopwatch total_sw;
  // Pre-scan: in the two-pass disk setting this is the first scan (count
  // ones(c), bucket rows by density); here ones(c) comes with the matrix
  // and the pre-scan cost is the order construction.
  std::vector<RowId> order;
  {
    ScopedSpan span(obs.trace, std::string(Kind::kName) + "/prescan",
                    obs.trace_lane);
    order = MakeRowOrder(matrix, options.policy.row_order);
  }
  stats->prescan_seconds = total_sw.ElapsedSeconds();

  // The second scan: the same streamed passes the external and sharded
  // miners run, fed from memory.
  auto rules = StreamPhases<Kind>(
      matrix.num_columns(), matrix.column_ones(), matrix.num_rows(), options,
      [&](auto&& sink) {
        for (const RowId r : order) sink(matrix.Row(r));
      },
      lhs_shard, stats);
  if (!rules.ok()) return rules.status();
  stats->total_seconds = total_sw.ElapsedSeconds();
  RecordToRegistry(obs.metrics, Kind::kName, *stats);
  return rules;
}

template StatusOr<ImplicationRuleSet> MineMatrix<ImplicationKind>(
    const BinaryMatrix&, const ImplicationMiningOptions&,
    const std::vector<uint8_t>*, MiningStats*);
template StatusOr<SimilarityRuleSet> MineMatrix<SimilarityKind>(
    const BinaryMatrix&, const SimilarityMiningOptions&,
    const std::vector<uint8_t>*, MiningStats*);

}  // namespace dmc
