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
// The rule kind's policy (who qualifies, who survives a hit or a miss)
// is injected through three predicates so both kinds of the one scan
// (StreamingPass<Kind>, core/streaming_pass.cc) share one implementation:
//   accept_new(ck)        — may ck join cj's list on this row?
//   keep_on_hit(ck, m)    — does an entry that hit survive? (sim's §5.2
//                           maximum-hits pruning can drop it)
//   keep_on_miss(ck, m')  — does an entry survive its bumped miss m'?

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

/// The implication-pass entry sweep (keep_on_hit = always,
/// keep_on_miss = new_miss <= budget), 8 entries per step: gather the
/// row-mask byte per candidate, bump misses and drop over-budget entries
/// with a permute-compress. Returns the new list size; the caller
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
  std::vector<ColumnId> fresh;  // row columns joining the list
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
                          const std::vector<ColumnId>& fresh,
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

/// The cnt > maxmis merge: no additions are possible, so the list is
/// updated strictly in place. Each entry is tested against the row's
/// dense membership mask (BeginRow — O(1) per entry, no merge-join);
/// misses are bumped in place and the list is compacted only past the
/// first death — no rebuild, no copy. The caller guarantees HasList(cj);
/// an empty list is a no-op.
template <typename KeepOnHit, typename KeepOnMiss>
void InPlaceMissMerge(MissCounterTable& table, ColumnId cj,
                      MergeScratch& scratch, KeepOnHit keep_on_hit,
                      KeepOnMiss keep_on_miss) {
  const MissCounterTable::MutableList list = table.Mutable(cj);
  if (list.size == 0) return;
  // Optimistic sweep: entries die at most once in their lifetime, so
  // the common row drops nothing. Update misses in place (no element
  // moves) until the first death — that branch predicts near-perfectly
  // — and only then fall into the compacting loop for the tail.
  // __restrict: the byte mask would otherwise alias the uint32 miss
  // stores (unsigned char aliases everything) and force reloads.
  const uint8_t* __restrict mask = scratch.row_mask.data();
  size_t j = 0;
  for (; j < list.size; ++j) {
    const ColumnId ck = list.cand[j];
    const uint8_t hit = mask[ck] != 0 ? 1 : 0;
    const uint32_t old_miss = list.miss[j];
    const uint32_t new_miss = old_miss + 1u - hit;
    list.miss[j] = new_miss;
    const bool keep =
        hit != 0 ? keep_on_hit(ck, old_miss) : keep_on_miss(ck, new_miss);
    if (!keep) break;
  }
  size_t w = j;
  for (++j; j < list.size; ++j) {
    const ColumnId ck = list.cand[j];
    const uint8_t hit = mask[ck] != 0 ? 1 : 0;
    const uint32_t old_miss = list.miss[j];
    const uint32_t new_miss = old_miss + 1u - hit;
    const bool keep =
        hit != 0 ? keep_on_hit(ck, old_miss) : keep_on_miss(ck, new_miss);
    if (!keep) continue;
    list.cand[w] = ck;
    list.miss[w] = new_miss;
    ++w;
  }
  if (w != list.size) table.SetSize(cj, w);
}

/// The cnt <= maxmis merge: existing entries take hits/misses exactly as
/// in InPlaceMissMerge, and accepted row-only columns join with
/// miss = base_miss. The sweep tests each entry against the row's dense
/// membership mask (BeginRow) and bumps/compacts the survivors in place,
/// flagging each consumed hit in the mask; one walk over the row
/// afterwards yields the joiners and restores the mask. The joiners are
/// then merged in from the back after a single Reserve, so the common
/// no-joiner row touches each entry exactly once and an interleaved join
/// costs one bounded backward merge instead of a full rebuild. The list
/// is created lazily: a merge that would leave it empty does not create
/// it and pays no kPerListOverheadBytes (an already-created list that
/// empties out stays live, as before).
template <typename AcceptNew, typename KeepOnHit, typename KeepOnMiss>
void InPlaceAddMerge(MissCounterTable& table, ColumnId cj,
                     std::span<const ColumnId> row, uint32_t base_miss,
                     MergeScratch& scratch, AcceptNew accept_new,
                     KeepOnHit keep_on_hit, KeepOnMiss keep_on_miss) {
  scratch.fresh.clear();
  if (!table.HasList(cj)) {
    for (const ColumnId ck : row) {
      if (ck != cj && accept_new(ck)) scratch.fresh.push_back(ck);
    }
    if (scratch.fresh.empty()) return;
    table.Create(cj);
    const MissCounterTable::MutableList list =
        table.Reserve(cj, scratch.fresh.size());
    for (size_t k = 0; k < scratch.fresh.size(); ++k) {
      list.cand[k] = scratch.fresh[k];
      list.miss[k] = base_miss;
    }
    table.SetSize(cj, scratch.fresh.size());
    return;
  }

  const MissCounterTable::MutableList list = table.Mutable(cj);
  // Optimistic mask sweep (see InPlaceMissMerge): each entry is an O(1)
  // membership test and misses are bumped in place with no element
  // moves until the first death. A consumed hit is flagged (1 -> 2,
  // written as mask * 2 since a missed entry's mask is already 0) so
  // the row walk below can tell joiners (still 1) from already-listed
  // columns, then restores the flags. A dying hit is flagged too: it
  // was in the list on this row, so it must not rejoin as fresh.
  // __restrict as in InPlaceMissMerge: keep the byte mask disjoint
  // from the uint32 miss stores for the alias analyzer.
  uint8_t* __restrict mask = scratch.row_mask.data();
  size_t j = 0;
  for (; j < list.size; ++j) {
    const ColumnId ck = list.cand[j];
    const uint8_t hit = mask[ck];  // 0 or 1: entries are unique
    mask[ck] = static_cast<uint8_t>(hit * 2);
    const uint32_t old_miss = list.miss[j];
    const uint32_t new_miss = old_miss + 1u - hit;
    list.miss[j] = new_miss;
    const bool keep =
        hit != 0 ? keep_on_hit(ck, old_miss) : keep_on_miss(ck, new_miss);
    if (!keep) break;
  }
  size_t w = j;
  for (++j; j < list.size; ++j) {
    const ColumnId ck = list.cand[j];
    const uint8_t hit = mask[ck];
    mask[ck] = static_cast<uint8_t>(hit * 2);
    const uint32_t old_miss = list.miss[j];
    const uint32_t new_miss = old_miss + 1u - hit;
    const bool keep =
        hit != 0 ? keep_on_hit(ck, old_miss) : keep_on_miss(ck, new_miss);
    if (!keep) continue;
    list.cand[w] = ck;
    list.miss[w] = new_miss;
    ++w;
  }
  for (const ColumnId cr : row) {
    if (mask[cr] == 2) {
      mask[cr] = 1;
    } else if (cr != cj && accept_new(cr)) {
      scratch.fresh.push_back(cr);
    }
  }

  if (scratch.fresh.empty()) {
    if (w != list.size) table.SetSize(cj, w);
    return;
  }
  // Reserve preserves the survivors in [0, w); entries past the last
  // joiner are already in position.
  MergeJoinersFromBack(table, cj, w, scratch.fresh,
                       [base_miss](ColumnId) { return base_miss; });
}

/// The pre-arena cnt <= maxmis merge: one linear pass rebuilds the whole
/// list into scratch and copies it back, every row. Semantically
/// identical to InPlaceAddMerge (including lazy creation); kept as the
/// differential baseline.
template <typename AcceptNew, typename KeepOnHit, typename KeepOnMiss>
void LegacyAddMerge(MissCounterTable& table, ColumnId cj,
                    std::span<const ColumnId> row, uint32_t base_miss,
                    MergeScratch& scratch, AcceptNew accept_new,
                    KeepOnHit keep_on_hit, KeepOnMiss keep_on_miss) {
  const bool had_list = table.HasList(cj);
  const MissCounterTable::ListView list =
      had_list ? table.List(cj) : MissCounterTable::ListView{};
  scratch.cand.clear();
  scratch.miss.clear();
  size_t i = 0, j = 0;
  while (i < row.size() || j < list.size) {
    if (j >= list.size || (i < row.size() && row[i] < list.cand[j])) {
      const ColumnId ck = row[i++];
      if (ck != cj && accept_new(ck)) {
        scratch.cand.push_back(ck);
        scratch.miss.push_back(base_miss);
      }
    } else if (i >= row.size() || list.cand[j] < row[i]) {
      const ColumnId ck = list.cand[j];
      const uint32_t new_miss = list.miss[j] + 1;
      ++j;
      if (keep_on_miss(ck, new_miss)) {
        scratch.cand.push_back(ck);
        scratch.miss.push_back(new_miss);
      }
    } else {  // in both: a hit
      const ColumnId ck = list.cand[j];
      const uint32_t old_miss = list.miss[j];
      ++i;
      ++j;
      if (keep_on_hit(ck, old_miss)) {
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
template <typename KeepOnHit, typename KeepOnMiss>
void LegacyMissMerge(MissCounterTable& table, ColumnId cj,
                     std::span<const ColumnId> row, MergeScratch& scratch,
                     KeepOnHit keep_on_hit, KeepOnMiss keep_on_miss) {
  const MissCounterTable::ListView list = table.List(cj);
  if (list.empty()) return;
  scratch.cand.clear();
  scratch.miss.clear();
  size_t i = 0;
  for (size_t j = 0; j < list.size; ++j) {
    const ColumnId ck = list.cand[j];
    while (i < row.size() && row[i] < ck) ++i;
    if (i < row.size() && row[i] == ck) {
      if (!keep_on_hit(ck, list.miss[j])) continue;
      scratch.cand.push_back(ck);
      scratch.miss.push_back(list.miss[j]);
    } else {
      const uint32_t new_miss = list.miss[j] + 1;
      if (!keep_on_miss(ck, new_miss)) continue;
      scratch.cand.push_back(ck);
      scratch.miss.push_back(new_miss);
    }
  }
  table.Assign(cj, scratch.cand.data(), scratch.miss.data(),
               scratch.cand.size());
}

}  // namespace dmc

#endif  // DMC_CORE_KERNELS_H_
