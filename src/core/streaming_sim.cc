#include "core/streaming_sim.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/kernels.h"
#include "observe/progress.h"
#include "postings/posting_container.h"
#include "util/logging.h"

namespace dmc {

StreamingSimilarityPass::StreamingSimilarityPass(Config config)
    : config_(std::move(config)),
      one_plus_s_(1.0 + config_.min_similarity),
      budget_eps_((1.0 + config_.min_similarity) * kThresholdEpsilon),
      kernel_(ResolveKernel(config_.policy.kernel)),
      tracker_(config_.tracker != nullptr ? config_.tracker : &own_tracker_),
      table_(config_.num_columns, config_.bytes_per_entry, tracker_),
      cnt_(config_.num_columns, 0) {
  DMC_CHECK_EQ(config_.ones.size(), config_.num_columns);
  if (!config_.lhs_shard.empty()) {
    DMC_CHECK_EQ(config_.lhs_shard.size(), config_.num_columns);
  }
  DMC_CHECK_GT(config_.min_similarity, 0.0);
  DMC_CHECK_LE(config_.min_similarity, 1.0);
  all_active_ =
      config_.active.empty() ||
      std::all_of(config_.active.begin(), config_.active.end(),
                  [](uint8_t a) { return a != 0; });
  col_budget_.resize(config_.num_columns);
  s_ones_.resize(config_.num_columns);
  uint64_t total_ones = 0;
  for (ColumnId c = 0; c < config_.num_columns; ++c) {
    col_budget_[c] =
        ColumnMaxMissesForSimilarity(config_.ones[c], config_.min_similarity);
    s_ones_[c] =
        config_.min_similarity * static_cast<double>(config_.ones[c]);
    total_ones += config_.ones[c];
  }
  use_vector_ = kernel_ == MergeKernel::kSimd &&
                config_.policy.max_hits_pruning &&
                kernels::PreferVectorSweep(config_.num_columns,
                                           config_.total_rows, total_ones);
  if (use_vector_) {
    table_.EnableSidecars();
    // rem_[c] = ones[c] - cnt[c], kept current in step 3(b) so the sweep
    // gathers one array per candidate.
    rem_.assign(config_.ones.begin(), config_.ones.end());
  }
}

bool StreamingSimilarityPass::Qualifies(ColumnId ck, ColumnId cj) const {
  return config_.ones[ck] > config_.ones[cj] ||
         (config_.ones[ck] == config_.ones[cj] && ck > cj);
}

int64_t StreamingSimilarityPass::PairBudget(ColumnId ci,
                                            ColumnId ck) const {
  return MaxMissesForSimilarity(config_.ones[ci], config_.ones[ck],
                                config_.min_similarity);
}

// mis <= MaxMissesForSimilarity(a, ones(ck), s) in multiply form:
//   mis <= (a - s*b)/(1+s) + eps  <=>  (1+s)*mis <= a - s*b + (1+s)*eps,
// with s*b = s_ones_[ck] precomputed per pass. Hoists the per-entry
// floating divide (and floor) out of the merge predicates; the
// kThresholdEpsilon guard band (thresholds.h) is orders of magnitude
// wider than the rounding difference between the forms, so they decide
// identically.
bool StreamingSimilarityPass::WithinPairBudget(uint32_t a, ColumnId ck,
                                               int64_t mis) const {
  return one_plus_s_ * static_cast<double>(mis) <=
         static_cast<double>(a) - s_ones_[ck] + budget_eps_;
}

// §5.2 maximum-hits bound, evaluated while processing a row where cj and
// ck are BOTH present (or ck is being added). Counters are pre-row, so
// the remaining-1s terms still include the current row — matching
// Example 5.1's arithmetic exactly.
bool StreamingSimilarityPass::SurvivesMaxHitsOnHit(ColumnId cj, ColumnId ck,
                                                   uint32_t miss) const {
  const int64_t rem_j = static_cast<int64_t>(config_.ones[cj]) - cnt_[cj];
  const int64_t rem_k = static_cast<int64_t>(config_.ones[ck]) - cnt_[ck];
  const int64_t hits_so_far = static_cast<int64_t>(cnt_[cj]) - miss;
  const int64_t best_hits = hits_so_far + std::min(rem_j, rem_k);
  // best_hits >= MinHitsForSimilarity(a, b, s) <=> a - best_hits is
  // within the pair budget. Since best_hits <= a - miss, the floor
  // a - best_hits is >= miss, so this single test also subsumes the
  // plain pair-budget test of the current miss count.
  return WithinPairBudget(config_.ones[cj], ck,
                          static_cast<int64_t>(config_.ones[cj]) - best_hits);
}

// Same bound on a row where cj is present but ck is NOT (`new_miss`
// already includes this row's miss). The current row cannot be a future
// hit: it consumes one of cj's remaining 1s and none of ck's.
bool StreamingSimilarityPass::SurvivesMaxHitsOnMiss(
    ColumnId cj, ColumnId ck, uint32_t new_miss) const {
  const int64_t rem_j =
      static_cast<int64_t>(config_.ones[cj]) - cnt_[cj] - 1;
  const int64_t rem_k = static_cast<int64_t>(config_.ones[ck]) - cnt_[ck];
  const int64_t hits_so_far = static_cast<int64_t>(cnt_[cj]) -
                              (static_cast<int64_t>(new_miss) - 1);
  const int64_t best_hits = hits_so_far + std::min(rem_j, rem_k);
  // The floor a - best_hits is >= new_miss here (rem_j excludes the
  // current row), so this subsumes the pair-budget test of new_miss.
  return WithinPairBudget(config_.ones[cj], ck,
                          static_cast<int64_t>(config_.ones[cj]) - best_hits);
}

std::span<const ColumnId> StreamingSimilarityPass::FilteredRow(
    std::span<const ColumnId> row) {
  if (all_active_) return row;
  scratch_row_.clear();
  for (ColumnId c : row) {
    if (config_.active[c]) scratch_row_.push_back(c);
  }
  return scratch_row_;
}

void StreamingSimilarityPass::ProcessRow(std::span<const ColumnId> row) {
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

  const auto filtered = FilteredRow(row);

  if (!bitmap_mode_ && config_.policy.bitmap_fallback &&
      config_.total_rows - rows_seen_ <=
          config_.policy.bitmap_max_remaining_rows &&
      table_.bytes() >= config_.policy.memory_threshold_bytes) {
    bitmap_mode_ = true;
  }

  if (bitmap_mode_) {
    tail_.emplace_back(filtered.begin(), filtered.end());
    ++rows_seen_;
    return;
  }

  if (kernel_ == MergeKernel::kSimd) {
    scratch_.BeginRow(filtered, config_.num_columns);
  }
  for (ColumnId cj : filtered) {
    if (!LhsOk(cj)) continue;  // not this shard's antecedent
    if (static_cast<int64_t>(cnt_[cj]) <= col_budget_[cj]) {
      MergeWithAdd(cj, filtered);
    } else if (table_.HasList(cj)) {
      MergeMissOnly(cj, filtered);
    }
  }
  for (ColumnId cj : filtered) {
    ++cnt_[cj];
    if (use_vector_) --rem_[cj];
    if (cnt_[cj] == config_.ones[cj] && table_.HasList(cj)) {
      FlushColumn(cj);
    }
  }
  RecordHistory();
  ++rows_seen_;
}

void StreamingSimilarityPass::MergeWithAdd(ColumnId cj,
                                           std::span<const ColumnId> row) {
  const uint32_t base_miss = cnt_[cj];
  if (use_vector_) {
    VectorAddMerge(cj, row, base_miss);
    return;
  }
  // §5.1 column-density pruning on joiners: a negative budget means the
  // ratio ones(cj)/ones(ck) is below s and the pair can never qualify; a
  // budget below cnt(cj) means it is dead on arrival. With the pruning
  // disabled (ablation) such pairs are still added and left to the
  // regular miss counting + flush guard, costing memory but never
  // changing the output.
  const auto accept_new = [this, cj, base_miss](ColumnId ck) {
    if (!Qualifies(ck, cj)) return false;
    // The max-hits test subsumes the density test (its miss floor is
    // >= base_miss), so each branch is a single budget comparison.
    if (config_.policy.max_hits_pruning) {
      return SurvivesMaxHitsOnHit(cj, ck, base_miss);
    }
    return !config_.policy.column_density_pruning ||
           WithinPairBudget(config_.ones[cj], ck, base_miss);
  };
  const auto keep_on_hit = [this, cj](ColumnId ck, uint32_t miss) {
    return !config_.policy.max_hits_pruning ||
           SurvivesMaxHitsOnHit(cj, ck, miss);
  };
  const auto keep_on_miss = [this, cj](ColumnId ck, uint32_t new_miss) {
    if (config_.policy.max_hits_pruning) {
      return SurvivesMaxHitsOnMiss(cj, ck, new_miss);
    }
    return WithinPairBudget(config_.ones[cj], ck, new_miss);
  };
  if (kernel_ == MergeKernel::kLegacy) {
    LegacyAddMerge(table_, cj, row, base_miss, scratch_, accept_new,
                   keep_on_hit, keep_on_miss);
  } else {
    InPlaceAddMerge(table_, cj, row, base_miss, scratch_, kernel_,
                    accept_new, keep_on_hit, keep_on_miss);
  }
}

void StreamingSimilarityPass::MergeMissOnly(ColumnId cj,
                                            std::span<const ColumnId> row) {
  if (use_vector_) {
    const MissCounterTable::MutableList list = table_.Mutable(cj);
    if (list.size == 0) return;
    uint64_t* sc = table_.Sidecar(cj);
    scratch_.dead_hits.clear();
    const size_t w = kernels::SimVectorSweep(
        list.cand, list.miss, list.size, scratch_.row_mask.data(),
        MakeSweepParams(cj), sc, &scratch_.dead_hits);
    // No joiner walk here, so dying hits can be cleared right away.
    for (const ColumnId d : scratch_.dead_hits) {
      MissCounterTable::SidecarClearBit(sc, d);
    }
    if (w != list.size) table_.SetSize(cj, w);
    return;
  }
  const auto keep_on_hit = [this, cj](ColumnId ck, uint32_t miss) {
    return !config_.policy.max_hits_pruning ||
           SurvivesMaxHitsOnHit(cj, ck, miss);
  };
  const auto keep_on_miss = [this, cj](ColumnId ck, uint32_t new_miss) {
    if (config_.policy.max_hits_pruning) {
      return SurvivesMaxHitsOnMiss(cj, ck, new_miss);
    }
    return WithinPairBudget(config_.ones[cj], ck, new_miss);
  };
  if (kernel_ == MergeKernel::kLegacy) {
    LegacyMissMerge(table_, cj, row, scratch_, keep_on_hit, keep_on_miss);
  } else {
    InPlaceMissMerge(table_, cj, row, scratch_, kernel_, keep_on_hit,
                     keep_on_miss);
  }
}

kernels::SimSweepParams StreamingSimilarityPass::MakeSweepParams(
    ColumnId cj) const {
  kernels::SimSweepParams p;
  p.rem = rem_.data();
  p.s_ones = s_ones_.data();
  p.ones_j = static_cast<int32_t>(config_.ones[cj]);
  p.rem_j = rem_[cj];
  p.one_plus_s = one_plus_s_;
  p.budget_eps = budget_eps_;
  return p;
}

// MergeWithAdd on the block-typed vector path (see streaming_imp.cc for
// the sidecar-vs-mask rationale). Unlike implication, a similarity entry
// can die on a hit; its presence bit must survive the joiner row-walk —
// it was in the list on this row and must not rejoin — and is cleared
// just after.
void StreamingSimilarityPass::VectorAddMerge(ColumnId cj,
                                             std::span<const ColumnId> row,
                                             uint32_t base_miss) {
  if (!table_.HasList(cj)) {
    scratch_.fresh.clear();
    for (const ColumnId ck : row) {
      if (ck != cj && Qualifies(ck, cj) &&
          SurvivesMaxHitsOnHit(cj, ck, base_miss)) {
        scratch_.fresh.push_back(ck);
      }
    }
    if (scratch_.fresh.empty()) return;
    table_.Create(cj);
    const MissCounterTable::MutableList list =
        table_.Reserve(cj, scratch_.fresh.size());
    uint64_t* sc = table_.Sidecar(cj);
    for (size_t k = 0; k < scratch_.fresh.size(); ++k) {
      list.cand[k] = scratch_.fresh[k];
      list.miss[k] = base_miss;
      MissCounterTable::SidecarSetBit(sc, scratch_.fresh[k]);
    }
    table_.SetSize(cj, scratch_.fresh.size());
    return;
  }
  const MissCounterTable::MutableList list = table_.Mutable(cj);
  uint64_t* sc = table_.Sidecar(cj);
  scratch_.dead_hits.clear();
  const size_t w = kernels::SimVectorSweep(
      list.cand, list.miss, list.size, scratch_.row_mask.data(),
      MakeSweepParams(cj), sc, &scratch_.dead_hits);
  // Joiners word-wise: row columns whose presence bit is clear. The
  // dead-hit bits are still set here, so a candidate that died on this
  // row's hit cannot rejoin.
  scratch_.fresh.clear();
  const uint64_t* rb = scratch_.row_bits.data();
  const size_t words = scratch_.row_bits.size();
  for (size_t wd = 0; wd < words; ++wd) {
    uint64_t pending = rb[wd] & ~sc[wd];
    while (pending != 0) {
      const ColumnId cr = static_cast<ColumnId>(
          (wd << 6) + static_cast<unsigned>(__builtin_ctzll(pending)));
      pending &= pending - 1;
      if (cr != cj && Qualifies(cr, cj) &&
          SurvivesMaxHitsOnHit(cj, cr, base_miss)) {
        scratch_.fresh.push_back(cr);
      }
    }
  }
  for (const ColumnId d : scratch_.dead_hits) {
    MissCounterTable::SidecarClearBit(sc, d);
  }
  if (scratch_.fresh.empty()) {
    if (w != list.size) table_.SetSize(cj, w);
    return;
  }
  for (const ColumnId f : scratch_.fresh) {
    MissCounterTable::SidecarSetBit(sc, f);
  }
  MergeJoinersFromBack(table_, cj, w, scratch_.fresh, base_miss);
}

void StreamingSimilarityPass::FlushColumn(ColumnId cj) {
  const auto list = table_.List(cj);
  for (size_t j = 0; j < list.size; ++j) {
    // Guard for the ablation mode with density pruning off: a pair with a
    // negative budget may linger in the list if it never missed.
    if (static_cast<int64_t>(list.miss[j]) > PairBudget(cj, list.cand[j])) {
      continue;
    }
    EmitPair(cj, list.cand[j], config_.ones[cj] - list.miss[j]);
  }
  table_.Release(cj);
}

void StreamingSimilarityPass::EmitPair(ColumnId ci, ColumnId ck,
                                       uint32_t intersection) {
  const bool identical = config_.ones[ci] == config_.ones[ck] &&
                         intersection == config_.ones[ci];
  if (!config_.emit_identical && identical) return;
  out_.Add(SimilarityPair{ci, ck, config_.ones[ci], config_.ones[ck],
                          intersection});
}

void StreamingSimilarityPass::RecordHistory() {
  // Intra-row peaks; see StreamingImplicationPass::RecordHistory.
  if (config_.memory_history != nullptr) {
    config_.memory_history->push_back(tracker_->TakeIntervalPeak());
  }
  if (config_.candidate_history != nullptr) {
    config_.candidate_history->push_back(table_.TakeEntriesIntervalPeak());
  }
}

void StreamingSimilarityPass::RunBitmapPhases() {
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

  // Phase 1: columns past their column-level budget — finish the listed
  // candidates exactly.
  for (ColumnId c = 0; c < config_.num_columns; ++c) {
    if (!table_.HasList(c)) continue;
    if (static_cast<int64_t>(cnt_[c]) <= col_budget_[c]) continue;
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
      const int64_t total = static_cast<int64_t>(list.miss[e]) + extra;
      if (total <= PairBudget(c, list.cand[e])) {
        EmitPair(c, list.cand[e],
                 config_.ones[c] - static_cast<uint32_t>(total));
      }
    }
    table_.Release(c);
  }

  // Identical-column fast path (Algorithm 5.1 step 2): at minsim = 1
  // every phase-2 column has cnt = 0 (its column budget is 0), so its
  // support lies entirely in the tail and identical pairs are exactly
  // the equal-bitmap groups — "extract those column pairs that have the
  // same bitmap instead of counting", as the paper prescribes. Grouping
  // is sort-based ((hash, column) pairs), keeping the hot files free of
  // hash maps.
  if (config_.min_similarity == 1.0) {
    std::vector<std::pair<uint64_t, ColumnId>> hashed;
    for (ColumnId c = 0; c < config_.num_columns; ++c) {
      if (!ActiveOk(c) || config_.ones[c] == 0) continue;
      if (static_cast<int64_t>(cnt_[c]) > col_budget_[c]) continue;
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
          if (!LhsOk(std::min(ci, cj))) continue;
          if (bitmaps[bm_index[ci]] == bitmaps[bm_index[cj]]) {
            EmitPair(ci, cj, config_.ones[ci]);
          }
        }
      }
      lo = hi;
    }
    return;
  }

  // Phase 2: columns that may still gain candidates — count hits over the
  // tail, seeded with the exact head hits of listed candidates. Dense
  // per-column hit counts with a touched list for O(touched) reset; see
  // streaming_imp.cc for the rationale.
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
    if (!LhsOk(c) || !ActiveOk(c) || config_.ones[c] == 0) continue;
    if (static_cast<int64_t>(cnt_[c]) > col_budget_[c]) continue;
    touched.clear();
    if (table_.HasList(c)) {
      const auto list = table_.List(c);
      for (size_t e = 0; e < list.size; ++e) {
        touch(list.cand[e]);
        hits[list.cand[e]] = cnt_[c] - list.miss[e];
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
      if (static_cast<int64_t>(h) >=
          MinHitsForSimilarity(config_.ones[c], config_.ones[ck],
                               config_.min_similarity)) {
        EmitPair(c, ck, h);
      }
    }
    if (table_.HasList(c)) table_.Release(c);
  }
}

StatusOr<SimilarityRuleSet> StreamingSimilarityPass::Finish() {
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

}  // namespace dmc
