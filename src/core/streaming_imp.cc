#include "core/streaming_imp.h"

#include <algorithm>
#include <string>

#include "core/kernels.h"
#include "observe/progress.h"
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

StreamingImplicationPass::StreamingImplicationPass(Config config)
    : config_(std::move(config)),
      kernel_(ResolveKernel(config_.policy.kernel)),
      tracker_(config_.tracker != nullptr ? config_.tracker : &own_tracker_),
      table_(config_.num_columns, config_.bytes_per_entry, tracker_),
      cnt_(config_.num_columns, 0) {
  DMC_CHECK_EQ(config_.ones.size(), config_.num_columns);
  DMC_CHECK_EQ(config_.max_misses.size(), config_.num_columns);
  if (!config_.lhs_shard.empty()) {
    DMC_CHECK_EQ(config_.lhs_shard.size(), config_.num_columns);
  }
  all_active_ =
      config_.active.empty() ||
      std::all_of(config_.active.begin(), config_.active.end(),
                  [](uint8_t a) { return a != 0; });
  uint64_t total_ones = 0;
  for (const uint32_t o : config_.ones) total_ones += o;
  use_vector_ = kernel_ == MergeKernel::kSimd &&
                kernels::PreferVectorSweep(config_.num_columns,
                                           config_.total_rows, total_ones);
  if (use_vector_) table_.EnableSidecars();
}

bool StreamingImplicationPass::Qualifies(ColumnId ck, ColumnId cj) const {
  return config_.ones[ck] > config_.ones[cj] ||
         (config_.ones[ck] == config_.ones[cj] && ck > cj);
}

std::span<const ColumnId> StreamingImplicationPass::FilteredRow(
    std::span<const ColumnId> row) {
  if (all_active_) return row;
  scratch_row_.clear();
  for (ColumnId c : row) {
    if (config_.active[c]) scratch_row_.push_back(c);
  }
  return scratch_row_;
}

void StreamingImplicationPass::ProcessRow(std::span<const ColumnId> row) {
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
  // Step 3(a): update/extend every candidate list touched by this row.
  for (ColumnId cj : filtered) {
    if (!LhsOk(cj)) continue;  // not this shard's antecedent
    if (static_cast<int64_t>(cnt_[cj]) <= config_.max_misses[cj]) {
      MergeWithAdd(cj, filtered);
    } else if (table_.HasList(cj)) {
      MergeMissOnly(cj, filtered);
    }
  }
  // Step 3(b): bump counters; flush columns that are complete.
  for (ColumnId cj : filtered) {
    ++cnt_[cj];
    if (cnt_[cj] == config_.ones[cj] && table_.HasList(cj)) {
      FlushColumn(cj);
    }
  }
  RecordHistory();
  ++rows_seen_;
}

// Case cnt(cj) <= maxmis(cj): merge cand(cj) with the row. Row-only
// qualifying columns join with miss = cnt(cj) (they missed all earlier
// occurrences of cj — exact, because a prior co-occurrence would have
// added them already); list-only entries take a miss and are dropped the
// moment they exceed the budget.
void StreamingImplicationPass::MergeWithAdd(ColumnId cj,
                                            std::span<const ColumnId> row) {
  const uint32_t base_miss = cnt_[cj];
  const int64_t budget = config_.max_misses[cj];
  if (use_vector_) {
    VectorAddMerge(cj, row, base_miss, ClampBudget(budget));
    return;
  }
  const auto accept_new = [this, cj](ColumnId ck) {
    return Qualifies(ck, cj);
  };
  const auto keep_on_hit = [](ColumnId, uint32_t) { return true; };
  const auto keep_on_miss = [budget](ColumnId, uint32_t new_miss) {
    return static_cast<int64_t>(new_miss) <= budget;
  };
  if (kernel_ == MergeKernel::kLegacy) {
    LegacyAddMerge(table_, cj, row, base_miss, scratch_, accept_new,
                   keep_on_hit, keep_on_miss);
  } else {
    InPlaceAddMerge(table_, cj, row, base_miss, scratch_, kernel_,
                    accept_new, keep_on_hit, keep_on_miss);
  }
}

// Case cnt(cj) > maxmis(cj): no additions are possible any more; only
// count misses against existing candidates.
void StreamingImplicationPass::MergeMissOnly(ColumnId cj,
                                             std::span<const ColumnId> row) {
  const int64_t budget = config_.max_misses[cj];
  if (use_vector_) {
    const MissCounterTable::MutableList list = table_.Mutable(cj);
    if (list.size == 0) return;
    const size_t w = kernels::ImpVectorSweep(
        list.cand, list.miss, list.size, scratch_.row_mask.data(),
        ClampBudget(budget), table_.Sidecar(cj));
    if (w != list.size) table_.SetSize(cj, w);
    return;
  }
  const auto keep_on_hit = [](ColumnId, uint32_t) { return true; };
  const auto keep_on_miss = [budget](ColumnId, uint32_t new_miss) {
    return static_cast<int64_t>(new_miss) <= budget;
  };
  if (kernel_ == MergeKernel::kLegacy) {
    LegacyMissMerge(table_, cj, row, scratch_, keep_on_hit, keep_on_miss);
  } else {
    InPlaceMissMerge(table_, cj, row, scratch_, kernel_, keep_on_hit,
                     keep_on_miss);
  }
}

// MergeWithAdd on the block-typed vector path: the entry sweep runs in
// kernels::ImpVectorSweep and joiners are found with the per-list
// presence sidecar instead of the row-mask 1 -> 2 flagging (gathers
// can't scatter the flag back). An implication entry never dies on a
// hit, so a row column is a joiner iff its presence bit is clear.
void StreamingImplicationPass::VectorAddMerge(ColumnId cj,
                                              std::span<const ColumnId> row,
                                              uint32_t base_miss,
                                              uint32_t budget) {
  if (!table_.HasList(cj)) {
    scratch_.fresh.clear();
    for (const ColumnId ck : row) {
      if (ck != cj && Qualifies(ck, cj)) scratch_.fresh.push_back(ck);
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
  const size_t w =
      kernels::ImpVectorSweep(list.cand, list.miss, list.size,
                              scratch_.row_mask.data(), budget, sc);
  // Joiners word-wise: row columns whose presence bit is clear. cj's own
  // bit is pending too (a column never lists itself) — skipped by the
  // cr != cj test.
  scratch_.fresh.clear();
  const uint64_t* rb = scratch_.row_bits.data();
  const size_t words = scratch_.row_bits.size();
  for (size_t wd = 0; wd < words; ++wd) {
    uint64_t pending = rb[wd] & ~sc[wd];
    while (pending != 0) {
      const ColumnId cr = static_cast<ColumnId>(
          (wd << 6) + static_cast<unsigned>(__builtin_ctzll(pending)));
      pending &= pending - 1;
      if (cr != cj && Qualifies(cr, cj)) scratch_.fresh.push_back(cr);
    }
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

// cnt(cj) == ones(cj): every surviving candidate is a rule (its miss
// count is final and within budget).
void StreamingImplicationPass::FlushColumn(ColumnId cj) {
  const auto list = table_.List(cj);
  for (size_t j = 0; j < list.size; ++j) {
    EmitRule(cj, list.cand[j], list.miss[j]);
  }
  table_.Release(cj);
}

void StreamingImplicationPass::EmitRule(ColumnId lhs, ColumnId rhs,
                                        uint32_t misses) {
  if (!config_.emit_zero_miss && misses == 0) return;
  out_.Add(ImplicationRule{lhs, rhs, config_.ones[lhs], misses});
}

void StreamingImplicationPass::RecordHistory() {
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
void StreamingImplicationPass::RunBitmapPhases() {
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
    if (static_cast<int64_t>(cnt_[c]) <= config_.max_misses[c]) continue;
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
      if (total <= config_.max_misses[c]) {
        EmitRule(c, list.cand[e], static_cast<uint32_t>(total));
      }
    }
    table_.Release(c);
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
    if (!LhsOk(c) || !ActiveOk(c) || config_.ones[c] == 0) continue;
    if (static_cast<int64_t>(cnt_[c]) > config_.max_misses[c]) continue;
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
    const int64_t min_hits =
        static_cast<int64_t>(config_.ones[c]) - config_.max_misses[c];
    for (ColumnId ck : touched) {
      const uint32_t h = hits[ck];
      seen[ck] = 0;
      hits[ck] = 0;
      if (!Qualifies(ck, c)) continue;
      if (static_cast<int64_t>(h) >= min_hits) {
        EmitRule(c, ck, config_.ones[c] - h);
      }
    }
    if (table_.HasList(c)) table_.Release(c);
  }
}

StatusOr<ImplicationRuleSet> StreamingImplicationPass::Finish() {
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
