// Hot-path sorted-set kernels for the DMC scan.
//
// The per-row cost of DMC is "merge cand(cj) with the row" for every
// 1-column cj of every row (§4.4), so this file concentrates everything
// that loop touches:
//
//   * MarkHits / IntersectCount — sorted-set intersection primitives with
//     a scalar two-pointer reference and an AVX2 block-compare variant
//     behind runtime dispatch (ResolveKernel),
//   * InPlaceMissMerge — the cnt > maxmis fast path: mark hits, bump
//     misses, compact only when entries die; no rebuild, no copy,
//   * InPlaceAddMerge — the cnt <= maxmis path with an append fast path
//     for the common "row tail extends the list" case,
//   * LegacyAddMerge / LegacyMissMerge — the pre-arena rebuild-into-
//     scratch merges, kept selectable (DmcPolicy::kernel = kLegacy) as
//     the baseline the differential parity tests compare against.
//
// All kernels and both merge strategies produce byte-identical candidate
// lists and issue exactly one net MemoryTracker adjustment per merge, so
// rule sets, peak_counter_bytes and the per-row history samples are
// invariant under DmcPolicy::kernel.
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

/// True when the AVX2 intersection kernel can run on this CPU.
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

/// Per-merge constants for the similarity entry sweep. `ones`, `cnt` and
/// `s_ones` are the scan's dense per-column arrays (gathered per entry);
/// the scalars are the §5.2 maximum-hits bound inputs for the
/// list-keeping column cj, with rem_j = ones_j - cnt_j.
struct SimSweepParams {
  /// rem[c] = ones[c] - cnt[c], maintained incrementally by the scan
  /// (cnt is stable during a row's merges), so the sweep gathers one
  /// array instead of ones and cnt separately.
  const int32_t* rem = nullptr;
  const double* s_ones = nullptr;  // s * ones[c], precomputed by the scan
  int32_t ones_j = 0;
  int32_t rem_j = 0;
  double one_plus_s = 0.0;
  double budget_eps = 0.0;
};

/// The similarity-pass entry sweep with §5.2 maximum-hits pruning, 8
/// entries per step. For each candidate ck with old miss count m and row
/// hit h, the unified survival argument is
///   arg = rem_j + m - min(rem_j - 1 + h, rem_k)
/// (equal to ones_j - best_hits of SurvivesMaxHitsOnHit/OnMiss), tested
/// as one_plus_s * arg <= ones_j - s_ones[ck] + budget_eps with the
/// exact operand values and operation order of the scalar
/// WithinPairBudget, so the float decisions are bit-identical. Returns
/// the new list size.
size_t SimVectorSweep(ColumnId* cand, uint32_t* miss, size_t n,
                      const uint8_t* row_mask, const SimSweepParams& p);

/// Sets hit[j] = 1 iff list[j] is in row, else 0, for j in [0, n). Both
/// inputs are strictly ascending. `kernel` selects the intersection
/// implementation (kLegacy counts as kScalar here).
void MarkHits(const ColumnId* list, size_t n, const ColumnId* row, size_t m,
              uint8_t* hit, MergeKernel kernel);

/// |a ∩ b| for two strictly ascending id arrays.
size_t IntersectCount(const ColumnId* a, size_t na, const ColumnId* b,
                      size_t nb, MergeKernel kernel);

}  // namespace kernels

/// Reusable merge scratch; one per scan object, so the hot loop never
/// allocates once the vectors reach steady-state capacity.
struct MergeScratch {
  std::vector<uint8_t> hit;     // per-entry hit marks
  std::vector<ColumnId> fresh;  // row columns joining the list
  std::vector<ColumnId> cand;   // rebuild staging (legacy)
  std::vector<uint32_t> miss;
  /// Dense membership mask of the current row, shared by every merge of
  /// that row (kSimd paths): row_mask[c] == 1 while c is in the row, 2
  /// transiently while a hit is being consumed mid-merge, 0 otherwise.
  /// Sized num_columns + 3 so the vector sweeps' 32-bit gathers may read
  /// up to 3 bytes past the last column.
  std::vector<uint8_t> row_mask;
  std::vector<ColumnId> marked;  // columns set in row_mask (for O(|row|) reset)
  /// Word bitmap of the current row (same membership as row_mask), filled
  /// for the vector side only. The vector add-merge AND-NOTs it against
  /// a list's decided-set sidecar to find the columns still to test.
  std::vector<uint64_t> row_bits;

  /// Installs `row` as the current row. Scans using MergeKernel::kSimd
  /// must call this before the row's first merge (a row with no merge
  /// need not install itself); `with_bits` also fills row_bits. Cost is
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
/// the survivors to [0, w). One Reserve + one SetSize, so every merge
/// strategy issues the same net accounting adjustment. dst never
/// overtakes the surviving source slot, so the merge is safe in place.
inline void MergeJoinersFromBack(MissCounterTable& table, ColumnId cj,
                                 size_t w,
                                 const std::vector<ColumnId>& fresh,
                                 uint32_t base_miss) {
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
      grown.miss[dst] = base_miss;
    }
  }
  table.SetSize(cj, w + fn);
}

/// The cnt > maxmis merge: no additions are possible, so the list is
/// updated strictly in place. The kSimd kernel tests each entry against
/// the row's dense membership mask (BeginRow — O(1) per entry, no
/// merge-join); the scalar kernel fuses the search and the apply into
/// one two-pointer pass. Both bump misses and compact only past the
/// first death — no rebuild, no copy. The caller guarantees HasList(cj);
/// an empty list is a no-op.
template <typename KeepOnHit, typename KeepOnMiss>
void InPlaceMissMerge(MissCounterTable& table, ColumnId cj,
                      std::span<const ColumnId> row, MergeScratch& scratch,
                      MergeKernel kernel, KeepOnHit keep_on_hit,
                      KeepOnMiss keep_on_miss) {
  const MissCounterTable::MutableList list = table.Mutable(cj);
  if (list.size == 0) return;
  size_t w = 0;
  if (kernel == MergeKernel::kSimd) {
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
    w = j;
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
  } else {
    size_t i = 0;
    for (size_t j = 0; j < list.size; ++j) {
      const ColumnId ck = list.cand[j];
      while (i < row.size() && row[i] < ck) ++i;
      if (i < row.size() && row[i] == ck) {
        ++i;
        if (!keep_on_hit(ck, list.miss[j])) continue;
        if (w != j) {
          list.cand[w] = ck;
          list.miss[w] = list.miss[j];
        }
        ++w;
      } else {
        const uint32_t new_miss = list.miss[j] + 1;
        if (!keep_on_miss(ck, new_miss)) continue;
        list.cand[w] = ck;
        list.miss[w] = new_miss;
        ++w;
      }
    }
  }
  if (w != list.size) table.SetSize(cj, w);
}

/// The cnt <= maxmis merge: existing entries take hits/misses exactly as
/// in InPlaceMissMerge, and accepted row-only columns join with
/// miss = base_miss. One fused two-pointer sweep bumps/compacts the
/// survivors in place (write head w never overtakes read head j) while
/// collecting the joining columns; joiners are then merged in from the
/// back after a single Reserve, so the common no-joiner row touches each
/// entry exactly once and an interleaved join costs one bounded backward
/// merge instead of a full rebuild. The kSimd kernel replaces the
/// two-pointer sweep with the row's dense membership mask (BeginRow):
/// hits are O(1) byte tests, consumed hits are flagged in the mask, and
/// one walk over the row afterwards yields the joiners and restores the
/// mask. The list is created lazily: a merge that would leave it empty
/// does not create it and pays no kPerListOverheadBytes (an
/// already-created list that empties out stays live, as before).
template <typename AcceptNew, typename KeepOnHit, typename KeepOnMiss>
void InPlaceAddMerge(MissCounterTable& table, ColumnId cj,
                     std::span<const ColumnId> row, uint32_t base_miss,
                     MergeScratch& scratch, MergeKernel kernel,
                     AcceptNew accept_new, KeepOnHit keep_on_hit,
                     KeepOnMiss keep_on_miss) {
  if (!table.HasList(cj)) {
    scratch.fresh.clear();
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
  scratch.fresh.clear();
  size_t w = 0;
  if (kernel == MergeKernel::kSimd) {
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
    w = j;
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
  } else {
    // One flat three-way merge loop (row-only / list-only / both). The
    // flat shape predicts measurably better than a nested row-advance
    // loop and is what makes this path beat the rebuild baseline.
    size_t i = 0, j = 0;
    while (i < row.size() || j < list.size) {
      if (j >= list.size || (i < row.size() && row[i] < list.cand[j])) {
        // Row-only column: a join candidate.
        const ColumnId cr = row[i++];
        if (cr != cj && accept_new(cr)) scratch.fresh.push_back(cr);
      } else if (i >= row.size() || list.cand[j] < row[i]) {
        // List-only entry: a miss.
        const ColumnId ck = list.cand[j];
        const uint32_t new_miss = list.miss[j] + 1;
        ++j;
        if (!keep_on_miss(ck, new_miss)) continue;
        list.cand[w] = ck;
        list.miss[w] = new_miss;
        ++w;
      } else {
        // In both: a hit.
        const ColumnId ck = list.cand[j];
        const uint32_t old_miss = list.miss[j];
        ++i;
        ++j;
        if (!keep_on_hit(ck, old_miss)) continue;
        if (w != j - 1) {
          list.cand[w] = ck;
          list.miss[w] = old_miss;
        }
        ++w;
      }
    }
  }

  if (scratch.fresh.empty()) {
    if (w != list.size) table.SetSize(cj, w);
    return;
  }
  // Reserve preserves the survivors in [0, w); entries past the last
  // joiner are already in position.
  MergeJoinersFromBack(table, cj, w, scratch.fresh, base_miss);
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
