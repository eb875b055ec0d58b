// Hot-path kernels for the DMC scan.
//
// The per-row cost of DMC is "merge cand(cj) with the row" for every
// 1-column cj of every row (§4.4), so this file concentrates everything
// that loop touches:
//
//   * MergeScratch::BeginRow — the row's dense membership mask, built
//     once per row and shared by every merge of that row,
//   * InPlaceMissMerge — the cnt > maxmis path: one O(1) mask test per
//     entry, misses bumped in place, compaction only past the first
//     death; no rebuild, no copy,
//   * InPlaceAddMerge — the cnt <= maxmis path: the same sweep, plus one
//     walk over the row for the joiners, merged in from the back,
//   * ImpVectorSweep / SimVectorSweep — the block-typed entry sweeps
//     that kSimd runs on dense input (AVX2 bodies, portable fallbacks),
//   * LegacyAddMerge / LegacyMissMerge — the pre-arena rebuild-into-
//     scratch merges, kept selectable (DmcPolicy::kernel = kLegacy) as
//     the reference the differential parity tests compare against; they
//     share no code with the merges above.
//
// kScalar and kSimd both run the in-place merges; kSimd may run the
// vector sweeps instead (kernels::PreferVectorSweep). Every choice
// produces byte-identical candidate lists and posts exactly one net
// MemoryTracker adjustment per merge, so rule sets, peak_counter_bytes
// and the per-row history samples are invariant under DmcPolicy::kernel.
//
// The rule kind's policy is injected as its predicate object
// (ListPredicates, core/streaming_pass.h), so both kinds of the one scan
// (StreamingPass<Kind>, core/streaming_pass.cc) share one implementation;
// the scan adds Qualifies, the (ones, id) order a joiner must follow.
// The in-place merges call two of its tests:
//   AcceptNew(ck)     — may ck join cj's list on this row?
//   Keep(ck, m, hit)  — does an entry with m pre-row misses survive the
//                       row, where hit is 1 if ck is in it, else 0?
// Keep does not branch on hit: whether an entry hits follows the data,
// so a branch on it mispredicts at every surprise in a loop that does
// little else per entry. Each kind's Keep is the one expression that its
// paper-form tests KeepOnHit(ck, m) and KeepOnMiss(ck, m + 1) both
// reduce to, at hit = 1 and at hit = 0; the kLegacy merges call those
// two instead, so the parity tests check Keep against an independent
// form.

#ifndef DMC_CORE_KERNELS_H_
#define DMC_CORE_KERNELS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/dmc_options.h"
#include "core/miss_counter_table.h"
#include "matrix/binary_matrix.h"

namespace dmc {

/// True when this CPU supports AVX2, which the vector sweeps' bodies need.
bool SimdKernelAvailable();

/// Collapses kAuto to the best concrete kernel for this CPU and kSimd to
/// kScalar when AVX2 is unavailable; kLegacy and kScalar pass through.
MergeKernel ResolveKernel(MergeKernel requested);

/// Stable lower-case name ("auto", "legacy", "scalar", "simd") for stats
/// export and bench labels.
const char* KernelName(MergeKernel k);

namespace kernels {

/// Limits under which the block-typed vector merge sweeps below are
/// enabled: the decided-set sidecar stays one cache-friendly bitset
/// (<= 8 KiB) per live list, and every intermediate of the 8-wide epi32
/// arithmetic provably fits in int32.
inline constexpr uint32_t kVectorSweepMaxColumns = 65536;
inline constexpr uint32_t kVectorSweepMaxRows = uint32_t{1} << 30;

/// True when ImpVectorSweep / SimVectorSweep run their AVX2 bodies on
/// this CPU (gather + permute-compress). When false the portable scalar
/// bodies run instead — same results, no reason to prefer them over the
/// generic merges.
bool VectorSweepAvailable();

/// Whether a kSimd scan of `rows` rows over `num_columns` columns holding
/// `total_ones` ones runs the vector sweeps below (true) or the row-mask
/// merges (false). Beyond availability and the limits above, the sweep
/// needs a mean row at least as wide as a decided-set sidecar has words —
/// total_ones >= rows * ceil(num_columns / 64) — because every vector
/// add-merge walks the whole sidecar to find joiners, a cost that only
/// wide rows amortize. Every input is known before the first row, so a
/// scan decides once, and both choices give identical rules and
/// accounting.
bool PreferVectorSweep(ColumnId num_columns, uint64_t rows,
                       uint64_t total_ones);

/// The implication-pass entry sweep (a hit survives, a miss survives
/// within the budget), 8 entries per step: gather the row-mask byte per
/// candidate, bump misses and drop over-budget entries with a
/// permute-compress. Returns the new list size; the caller
/// commits it with SetSize. Byte-identical to ImplicationKind's scalar
/// predicates (core/streaming_pass.h). Neither sweep touches the list's
/// sidecar: a candidate that dies stays decided (DESIGN §5.4).
size_t ImpVectorSweep(ColumnId* cand, uint32_t* miss, size_t n,
                      const uint8_t* row_mask, uint32_t budget);

/// Per-merge constants for the similarity entry sweep: the §5.2
/// maximum-hits bound inputs for the list-keeping column cj.
struct SimSweepParams {
  /// rem[c] = ones[c] - cnt[c], maintained incrementally by the scan
  /// (cnt is stable during a row's merges); gathered per entry.
  const int32_t* rem = nullptr;
  int32_t rem_j = 0;
};

/// The similarity-pass entry sweep with §5.2 maximum-hits pruning, 8
/// int32 lanes per step. Each entry holds its slack d = B - m instead
/// of its miss count m, where B = SimilarityKind::SlackBudget(cj, ck),
/// the largest miss count the pair's budget test passes. With row hit h
/// the survival argument arg = rem_j + m - min(rem_j - 1 + h, rem_k)
/// (ones_j - best_hits of SurvivesMaxHitsOnHit/OnMiss) is at most B iff
///   rem_j - min(rem_j - 1 + h, rem_k) <= d,
/// and a survivor's slack becomes d - 1 + h. Every stored slack is >= 0
/// and < 2^30 under kVectorSweepMaxRows. Returns the new list size.
size_t SimVectorSweep(ColumnId* cand, uint32_t* slack, size_t n,
                      const uint8_t* row_mask, const SimSweepParams& p);

}  // namespace kernels

/// Reusable merge scratch; one per scan object, so the hot loop never
/// allocates once the vectors reach steady-state capacity.
struct MergeScratch {
  /// Row columns joining the list: all of it on the vector side; the
  /// mask merges size it to at least the row and count the joiners.
  std::vector<ColumnId> fresh;
  std::vector<ColumnId> cand;   // rebuild staging (legacy)
  std::vector<uint32_t> miss;
  /// Dense membership mask of the current row, shared by every merge of
  /// that row (all but kLegacy): row_mask[c] == 1 while c is in the row, 2
  /// transiently while a hit is being consumed mid-merge, 0 otherwise.
  /// Sized num_columns + 3 so the vector sweeps' 32-bit gathers may read
  /// up to 3 bytes past the last column.
  std::vector<uint8_t> row_mask;
  std::vector<ColumnId> marked;  // columns set in row_mask (for O(|row|) reset)
  /// Word bitmap of the current row (same membership as row_mask), filled
  /// for the vector side only. The vector add-merge AND-NOTs it against
  /// a list's decided-set sidecar to find the columns still to test.
  std::vector<uint64_t> row_bits;

  /// Installs `row` as the current row. A scan must call this before the
  /// row's first in-place merge or vector sweep (a row with no merge need
  /// not install itself); `with_bits` also fills row_bits. Cost is
  /// O(|previous installed row| + |row|), amortized across every column
  /// merge of the row.
  void BeginRow(std::span<const ColumnId> row, size_t num_columns,
                bool with_bits) {
    if (row_mask.size() < num_columns + 3) row_mask.assign(num_columns + 3, 0);
    if (with_bits && row_bits.size() < (num_columns + 63) / 64) {
      row_bits.assign((num_columns + 63) / 64, 0);
    }
    // Word-granular clear: every bit of the previous row lives in a word
    // that held some marked column, so clearing those words clears all.
    for (const ColumnId c : marked) {
      row_mask[c] = 0;
      if (with_bits) row_bits[c >> 6] = 0;
    }
    marked.assign(row.begin(), row.end());
    for (const ColumnId c : row) {
      row_mask[c] = 1;
      if (with_bits) row_bits[c >> 6] |= uint64_t{1} << (c & 63);
    }
  }
};

/// Merges `fresh` (strictly ascending, disjoint from the surviving
/// entries) into cj's list from the back, after a sweep has compacted
/// the survivors to [0, w); joiner ck enters with counter
/// `join_counter(ck)`. One Reserve + one SetSize, so every merge
/// strategy issues the same net accounting adjustment. dst never
/// overtakes the surviving source slot, so the merge is safe in place.
template <typename JoinCounter>
void MergeJoinersFromBack(MissCounterTable& table, ColumnId cj, size_t w,
                          std::span<const ColumnId> fresh,
                          JoinCounter join_counter) {
  const size_t fn = fresh.size();
  const MissCounterTable::MutableList grown = table.Reserve(cj, w + fn);
  size_t a = w, b = fn, dst = w + fn;
  while (b > 0) {
    if (a > 0 && grown.cand[a - 1] > fresh[b - 1]) {
      --dst;
      --a;
      grown.cand[dst] = grown.cand[a];
      grown.miss[dst] = grown.miss[a];
    } else {
      --dst;
      --b;
      grown.cand[dst] = fresh[b];
      grown.miss[dst] = join_counter(fresh[b]);
    }
  }
  table.SetSize(cj, w + fn);
}

/// The row-mask sweep of cj's list: each entry is one O(1) test against
/// the row's dense membership mask (BeginRow — no merge-join), its miss
/// count is bumped in place, and pred.Keep decides survival from the
/// pre-row count and the hit bit with no branch on the hit. Entries die
/// at most once in their lifetime, so the common row drops nothing: the
/// sweep moves no element until the first death (a branch that predicts
/// near-perfectly) and only then compacts the tail. With kFlagHits each
/// hit's mask byte becomes 2 (written as byte * 2, since a missed
/// entry's byte is already 0), marking the column listed for
/// CollectJoiners; a dying hit is flagged too, so it cannot rejoin on
/// the row it left. Returns the survivor count; the caller commits it.
template <bool kFlagHits, typename Pred>
size_t SweepList(const MissCounterTable::MutableList& list,
                 uint8_t* __restrict mask, const Pred& pred) {
  // __restrict: the byte mask would otherwise alias the uint32 miss
  // stores (unsigned char aliases everything) and force reloads.
  size_t j = 0;
  for (; j < list.size; ++j) {
    const ColumnId ck = list.cand[j];
    const uint32_t hit = mask[ck];  // 0 or 1: entries are unique
    if constexpr (kFlagHits) mask[ck] = static_cast<uint8_t>(hit * 2);
    const uint32_t old_miss = list.miss[j];
    list.miss[j] = old_miss + 1u - hit;
    if (!pred.Keep(ck, old_miss, hit)) break;
  }
  size_t w = j;
  for (++j; j < list.size; ++j) {
    const ColumnId ck = list.cand[j];
    const uint32_t hit = mask[ck];
    if constexpr (kFlagHits) mask[ck] = static_cast<uint8_t>(hit * 2);
    const uint32_t old_miss = list.miss[j];
    if (!pred.Keep(ck, old_miss, hit)) continue;
    list.cand[w] = ck;
    list.miss[w] = old_miss + 1u - hit;
    ++w;
  }
  return w;
}

/// The joiner walk after a flagging sweep (or on a row that creates the
/// list, where nothing is flagged): restores every row column's mask
/// byte to 1 and writes each column to scratch.fresh, advancing past it
/// only if it was unlisted (byte 1) and qualifies, so the walk has no
/// data-dependent branch. pred.AcceptNew then filters that short list.
/// Returns the joiner count, in scratch.fresh[0, n).
template <typename Qualifies, typename Pred>
size_t CollectJoiners(std::span<const ColumnId> row, MergeScratch& scratch,
                      Qualifies qualifies, const Pred& pred) {
  if (scratch.fresh.size() < row.size()) scratch.fresh.resize(row.size());
  uint8_t* __restrict mask = scratch.row_mask.data();
  ColumnId* __restrict fresh = scratch.fresh.data();
  size_t f = 0;
  for (const ColumnId cr : row) {
    const bool unlisted = mask[cr] == 1;
    mask[cr] = 1;
    fresh[f] = cr;
    f += static_cast<size_t>(unlisted & qualifies(cr));
  }
  size_t n = 0;
  for (size_t k = 0; k < f; ++k) {
    if (pred.AcceptNew(fresh[k])) fresh[n++] = fresh[k];
  }
  return n;
}

/// The cnt > maxmis merge: no additions are possible, so the list is
/// only swept (SweepList) — no rebuild, no copy. The caller guarantees
/// HasList(cj); an empty list is a no-op.
template <typename Pred>
void InPlaceMissMerge(MissCounterTable& table, ColumnId cj,
                      MergeScratch& scratch, const Pred& pred) {
  const MissCounterTable::MutableList list = table.Mutable(cj);
  if (list.size == 0) return;
  const size_t w = SweepList<false>(list, scratch.row_mask.data(), pred);
  if (w != list.size) table.SetSize(cj, w);
}

/// The cnt <= maxmis merge: existing entries take hits/misses exactly as
/// in InPlaceMissMerge while the sweep flags each consumed hit in the
/// mask; one walk over the row afterwards yields the joiners (qualifying
/// row-only columns pred.AcceptNew takes, entering with miss =
/// base_miss) and restores the mask. The joiners are then merged in
/// from the back after a single Reserve, so the common no-joiner row
/// touches each entry exactly once and an interleaved join costs one
/// bounded backward merge instead of a full rebuild. The list is
/// created lazily: a merge that would leave it empty does not create it
/// and pays no kPerListOverheadBytes (an already-created list that
/// empties out stays live, as before).
template <typename Qualifies, typename Pred>
void InPlaceAddMerge(MissCounterTable& table, ColumnId cj,
                     std::span<const ColumnId> row, uint32_t base_miss,
                     MergeScratch& scratch, Qualifies qualifies,
                     const Pred& pred) {
  const bool had_list = table.HasList(cj);
  size_t n = 0, w = 0;
  if (had_list) {
    const MissCounterTable::MutableList list = table.Mutable(cj);
    n = list.size;
    w = SweepList<true>(list, scratch.row_mask.data(), pred);
  }
  const size_t fn = CollectJoiners(row, scratch, qualifies, pred);
  if (fn == 0) {
    if (w != n) table.SetSize(cj, w);
    return;
  }
  if (!had_list) table.Create(cj);
  // Reserve preserves the survivors in [0, w); entries past the last
  // joiner are already in position.
  MergeJoinersFromBack(table, cj, w, {scratch.fresh.data(), fn},
                       [base_miss](ColumnId) { return base_miss; });
}

/// The pre-arena cnt <= maxmis merge: one linear pass rebuilds the whole
/// list into scratch and copies it back, every row. Semantically
/// identical to InPlaceAddMerge (including lazy creation); kept as the
/// differential baseline, so it decides survival by the paper's two
/// tests, pred.KeepOnHit and pred.KeepOnMiss, not by pred.Keep.
template <typename Qualifies, typename Pred>
void LegacyAddMerge(MissCounterTable& table, ColumnId cj,
                    std::span<const ColumnId> row, uint32_t base_miss,
                    MergeScratch& scratch, Qualifies qualifies,
                    const Pred& pred) {
  const bool had_list = table.HasList(cj);
  const MissCounterTable::ListView list =
      had_list ? table.List(cj) : MissCounterTable::ListView{};
  scratch.cand.clear();
  scratch.miss.clear();
  size_t i = 0, j = 0;
  while (i < row.size() || j < list.size) {
    if (j >= list.size || (i < row.size() && row[i] < list.cand[j])) {
      const ColumnId ck = row[i++];
      if (ck != cj && qualifies(ck) && pred.AcceptNew(ck)) {
        scratch.cand.push_back(ck);
        scratch.miss.push_back(base_miss);
      }
    } else if (i >= row.size() || list.cand[j] < row[i]) {
      const ColumnId ck = list.cand[j];
      const uint32_t new_miss = list.miss[j] + 1;
      ++j;
      if (pred.KeepOnMiss(ck, new_miss)) {
        scratch.cand.push_back(ck);
        scratch.miss.push_back(new_miss);
      }
    } else {  // in both: a hit
      const ColumnId ck = list.cand[j];
      const uint32_t old_miss = list.miss[j];
      ++i;
      ++j;
      if (pred.KeepOnHit(ck, old_miss)) {
        scratch.cand.push_back(ck);
        scratch.miss.push_back(old_miss);
      }
    }
  }
  if (!had_list) {
    if (scratch.cand.empty()) return;
    table.Create(cj);
  }
  table.Assign(cj, scratch.cand.data(), scratch.miss.data(),
               scratch.cand.size());
}

/// The pre-arena cnt > maxmis merge (rebuild into scratch, copy back).
/// Caller guarantees HasList(cj).
template <typename Pred>
void LegacyMissMerge(MissCounterTable& table, ColumnId cj,
                     std::span<const ColumnId> row, MergeScratch& scratch,
                     const Pred& pred) {
  const MissCounterTable::ListView list = table.List(cj);
  if (list.empty()) return;
  scratch.cand.clear();
  scratch.miss.clear();
  size_t i = 0;
  for (size_t j = 0; j < list.size; ++j) {
    const ColumnId ck = list.cand[j];
    while (i < row.size() && row[i] < ck) ++i;
    if (i < row.size() && row[i] == ck) {
      if (!pred.KeepOnHit(ck, list.miss[j])) continue;
      scratch.cand.push_back(ck);
      scratch.miss.push_back(list.miss[j]);
    } else {
      const uint32_t new_miss = list.miss[j] + 1;
      if (!pred.KeepOnMiss(ck, new_miss)) continue;
      scratch.cand.push_back(ck);
      scratch.miss.push_back(new_miss);
    }
  }
  table.Assign(cj, scratch.cand.data(), scratch.miss.data(),
               scratch.cand.size());
}

}  // namespace dmc

#endif  // DMC_CORE_KERNELS_H_
