// The counter array: per-column candidate lists with miss counters.
//
// This is the central data structure of the paper — "the counter array
// that keeps both miss counters and candidate lists for each column"
// (§4.4). Its byte footprint is what the 50 MB bitmap-switch rule and the
// memory figures (Fig. 3, Fig. 6(g,h)) measure, so the table keeps its own
// accounting through a MemoryTracker:
//   * a fixed overhead per live (non-NULL) list,
//   * a per-entry miss-counter cost — 4 bytes in the general case, 0 when
//     the phase needs no miss counters (the 100%-rule simplification of
//     §4.3), selected via bytes_per_entry (8 or 4), and
//   * the candidate-id set itself at its hybrid posting-container cost:
//     4 bytes per id, capped at PostingContainer::BitmapCostBytes(cols) —
//     a list denser than one packed bitmap never costs more than that
//     bitmap (postings/posting_container.h). The cap is what turns the
//     paper's global 50 MB bitmap-switch budget into a per-list bound;
//     it is monotone in the list size, so per-row peaks and the exported
//     memory histories stay invariant under DmcPolicy::kernel.
//
// Storage is an arena of SoA blocks: each list is one contiguous
// allocation holding `capacity` candidate ids followed by `capacity` miss
// counters, carved out of large slabs by a bump pointer and recycled
// through per-size-class free lists on Release. The SoA split keeps the
// id array dense for the vector sweeps' 8-lane loads (core/kernels.h),
// and the arena removes the per-list malloc/free churn of the old
// vector-of-vectors layout. Accounting stays logical-size based
// (capacity is never charged), so the reported byte curves are
// independent of the physical layout.

#ifndef DMC_CORE_MISS_COUNTER_TABLE_H_
#define DMC_CORE_MISS_COUNTER_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "matrix/binary_matrix.h"
#include "postings/posting_container.h"
#include "util/logging.h"
#include "util/memory_tracker.h"

namespace dmc {

/// Bump-pointer arena of SoA candidate blocks. Capacities are powers of
/// two (min 8) so a freed block is exactly reusable for any list of its
/// size class; blocks are never returned to the OS until the arena dies.
class CandidateArena {
 public:
  /// One list's storage: `capacity` ids followed by `capacity` counters.
  struct Block {
    ColumnId* cand = nullptr;
    uint32_t* miss = nullptr;
    uint32_t capacity = 0;
  };

  CandidateArena() = default;
  CandidateArena(const CandidateArena&) = delete;
  CandidateArena& operator=(const CandidateArena&) = delete;

  /// A block with capacity >= max(min_capacity, 8), recycled from the
  /// free list of its size class when possible.
  Block Allocate(size_t min_capacity) {
    const uint32_t cls = ClassFor(min_capacity);
    if (cls < free_.size() && !free_[cls].empty()) {
      const Block b = free_[cls].back();
      free_[cls].pop_back();
      return b;
    }
    const size_t cap = kMinCapacity << cls;
    Block b;
    b.cand = reinterpret_cast<ColumnId*>(
        Carve(cap * (sizeof(ColumnId) + sizeof(uint32_t))));
    b.miss = reinterpret_cast<uint32_t*>(b.cand + cap);
    b.capacity = static_cast<uint32_t>(cap);
    return b;
  }

  /// Returns a block to its size-class free list. Null blocks are a no-op.
  void Release(const Block& b) {
    if (b.capacity == 0) return;
    const uint32_t cls = ClassFor(b.capacity);
    if (free_.size() <= cls) free_.resize(cls + 1);
    free_[cls].push_back(b);
  }

  /// Physical slab bytes owned (diagnostics only — the table's accounted
  /// bytes stay logical-size based).
  size_t slab_bytes() const {
    size_t total = 0;
    for (const Slab& s : slabs_) total += s.size;
    return total;
  }

 private:
  static constexpr size_t kMinCapacity = 8;
  static constexpr size_t kSlabBytes = size_t{1} << 18;  // 256 KiB
  static constexpr size_t kBlockAlign = 32;              // one AVX2 lane

  static uint32_t ClassFor(size_t capacity) {
    uint32_t cls = 0;
    size_t cap = kMinCapacity;
    while (cap < capacity) {
      cap <<= 1;
      ++cls;
    }
    return cls;
  }

  std::byte* Carve(size_t bytes) {
    if (slabs_.empty() || slabs_.back().used + bytes + kBlockAlign >
                              slabs_.back().size) {
      Slab s;
      s.size = bytes + kBlockAlign > kSlabBytes ? bytes + kBlockAlign
                                                : kSlabBytes;
      s.data = std::make_unique<std::byte[]>(s.size);
      slabs_.push_back(std::move(s));
    }
    Slab& s = slabs_.back();
    const uintptr_t base = reinterpret_cast<uintptr_t>(s.data.get());
    const uintptr_t aligned =
        (base + s.used + kBlockAlign - 1) & ~uintptr_t{kBlockAlign - 1};
    s.used = aligned - base + bytes;
    return reinterpret_cast<std::byte*>(aligned);
  }

  struct Slab {
    std::unique_ptr<std::byte[]> data;
    size_t used = 0;
    size_t size = 0;
  };

  std::vector<Slab> slabs_;
  std::vector<std::vector<Block>> free_;  // indexed by size class
};

/// Per-column candidate lists, kept sorted by candidate id so the DMC scan
/// can merge a list with a (sorted) row in linear time. Lists are NULL
/// until created, matching the paper's cand(c) = NULL initial state.
class MissCounterTable {
 public:
  /// Accounted per live list (header + table bookkeeping).
  static constexpr size_t kPerListOverheadBytes = 32;
  /// Entry cost with miss counters (id + counter).
  static constexpr size_t kEntryBytesWithCounters = 8;
  /// Entry cost for 100%-rule phases (id only, §4.3).
  static constexpr size_t kEntryBytesIdOnly = 4;

  /// Read view of one list (SoA: parallel id / miss-counter arrays).
  struct ListView {
    const ColumnId* cand = nullptr;
    const uint32_t* miss = nullptr;
    size_t size = 0;

    bool empty() const { return size == 0; }
  };

  /// Mutable view for the in-place merge kernels. Writes within
  /// [0, capacity) are legal; commit a new logical size with SetSize().
  struct MutableList {
    ColumnId* cand = nullptr;
    uint32_t* miss = nullptr;
    size_t size = 0;
    size_t capacity = 0;
  };

  /// `tracker` must outlive the table; it accumulates this table's bytes
  /// (several tables in one mining run may share one tracker, so peaks
  /// compose correctly).
  MissCounterTable(ColumnId num_columns, size_t bytes_per_entry,
                   MemoryTracker* tracker)
      : lists_(num_columns),
        created_(num_columns, 0),
        bytes_per_entry_(bytes_per_entry),
        id_bytes_cap_(PostingContainer::BitmapCostBytes(num_columns)),
        tracker_(tracker) {
    DMC_CHECK_GE(bytes_per_entry, kEntryBytesIdOnly);
  }

  ~MissCounterTable() { ReleaseEverything(); }

  MissCounterTable(const MissCounterTable&) = delete;
  MissCounterTable& operator=(const MissCounterTable&) = delete;

  bool HasList(ColumnId c) const { return created_[c] != 0; }

  /// Creates an empty list for `c`. Must not already exist.
  void Create(ColumnId c) {
    DMC_CHECK(!created_[c]);
    created_[c] = 1;
    ++live_lists_;
    tracker_->Add(kPerListOverheadBytes);
    if (sidecars_enabled_) {
      Header& h = lists_[c];
      if (!sidecar_free_.empty()) {
        h.sidecar = sidecar_free_.back();
        sidecar_free_.pop_back();
      } else {
        sidecar_pool_.push_back(std::make_unique<uint64_t[]>(sidecar_words_));
        h.sidecar = sidecar_pool_.back().get();
      }
      std::memset(h.sidecar, 0, sidecar_words_ * sizeof(uint64_t));
    }
  }

  /// Turns on per-list decided-set sidecars: one bit per column, zeroed
  /// by Create and otherwise written only by the caller. The vector
  /// add-merge (StreamingPass) sets bit k once column k has been decided
  /// for the list, joined or rejected for good, and never clears it, so
  /// each column is tested once per list. Storage is pool-recycled
  /// across Release/Create and is physical acceleration state only —
  /// never charged to the tracker. Must be called before any list is
  /// created; the rebuilding Assign is for tables without sidecars.
  void EnableSidecars() {
    DMC_CHECK_EQ(live_lists_, size_t{0});
    sidecars_enabled_ = true;
    sidecar_words_ = (static_cast<size_t>(num_columns()) + 63) / 64;
  }

  /// The decided-set bitmap for `c`'s list, ceil(num_columns / 64)
  /// words; valid only when HasList(c) and sidecars are enabled.
  uint64_t* Sidecar(ColumnId c) {
    DMC_CHECK(created_[c]);
    return lists_[c].sidecar;
  }

  /// The list for `c`; valid only when HasList(c).
  ListView List(ColumnId c) const {
    DMC_CHECK(created_[c]);
    const Header& h = lists_[c];
    return ListView{h.block.cand, h.block.miss, h.size};
  }

  /// Mutable view of `c`'s list; valid only when HasList(c).
  MutableList Mutable(ColumnId c) {
    DMC_CHECK(created_[c]);
    Header& h = lists_[c];
    return MutableList{h.block.cand, h.block.miss, h.size, h.block.capacity};
  }

  /// Grows `c`'s physical capacity to at least `capacity` (existing
  /// entries are moved to the new block) and returns the updated view.
  /// Pointers from earlier views are invalidated when a move happens.
  MutableList Reserve(ColumnId c, size_t capacity) {
    DMC_CHECK(created_[c]);
    Header& h = lists_[c];
    if (capacity > h.block.capacity) {
      const CandidateArena::Block nb = arena_.Allocate(capacity);
      if (h.size > 0) {
        std::memcpy(nb.cand, h.block.cand, h.size * sizeof(ColumnId));
        std::memcpy(nb.miss, h.block.miss, h.size * sizeof(uint32_t));
      }
      arena_.Release(h.block);
      h.block = nb;
    }
    return MutableList{h.block.cand, h.block.miss, h.size, h.block.capacity};
  }

  /// Commits a new logical size after in-place edits through Mutable() /
  /// Reserve(). One net accounting adjustment, like the old Replace().
  void SetSize(ColumnId c, size_t new_size) {
    DMC_CHECK(created_[c]);
    Header& h = lists_[c];
    DMC_CHECK_LE(new_size, h.block.capacity);
    ApplySizeDelta(&h, new_size);
  }

  /// Replaces `c`'s list with a copy of the given SoA arrays (`miss` may
  /// be null only when `n` == 0). One net accounting adjustment. Not for
  /// tables with sidecars: a rebuild cannot know which columns were
  /// decided.
  void Assign(ColumnId c, const ColumnId* cand, const uint32_t* miss,
              size_t n) {
    DMC_CHECK(created_[c]);
    DMC_CHECK(!sidecars_enabled_);
    Header& h = lists_[c];
    if (n > h.block.capacity) {
      arena_.Release(h.block);
      h.block = arena_.Allocate(n);
    }
    if (n > 0) {
      std::memcpy(h.block.cand, cand, n * sizeof(ColumnId));
      std::memcpy(h.block.miss, miss, n * sizeof(uint32_t));
    }
    ApplySizeDelta(&h, n);
  }

  /// Frees the list for `c` (back to NULL); its block returns to the
  /// arena's free list for reuse.
  void Release(ColumnId c) {
    DMC_CHECK(created_[c]);
    Header& h = lists_[c];
    const size_t entry_bytes = EntryBytes(h.size);
    tracker_->Sub(entry_bytes + kPerListOverheadBytes);
    charged_entry_bytes_ -= entry_bytes;
    total_entries_ -= h.size;
    --live_lists_;
    arena_.Release(h.block);
    if (h.sidecar != nullptr) sidecar_free_.push_back(h.sidecar);
    h = Header{};
    created_[c] = 0;
  }

  /// Releases every live list.
  void ReleaseEverything() {
    for (ColumnId c = 0; c < created_.size(); ++c) {
      if (created_[c]) Release(c);
    }
  }

  ColumnId num_columns() const {
    return static_cast<ColumnId>(lists_.size());
  }

  /// Live candidate entries across all lists.
  size_t total_entries() const { return total_entries_; }

  /// Largest total_entries() ever observed, including transient intra-row
  /// states (the ImplicationPassResult::peak_entries source of truth).
  size_t peak_entries() const { return peak_entries_; }

  /// Peak total_entries() since the last call (mirrors
  /// MemoryTracker::TakeIntervalPeak for the candidate-count history).
  size_t TakeEntriesIntervalPeak() {
    const size_t peak = interval_peak_entries_;
    interval_peak_entries_ = total_entries_;
    return peak;
  }

  /// Accounted bytes for this table alone. O(1): the per-list id-set cap
  /// makes the sum non-decomposable from totals, so it is maintained
  /// incrementally as lists resize.
  size_t bytes() const {
    return live_lists_ * kPerListOverheadBytes + charged_entry_bytes_;
  }

  /// Accounted bytes for one list of `n` entries, excluding the per-list
  /// overhead: miss counters at (bytes_per_entry - 4) each plus the id
  /// set at its posting-container cost, min(4n, BitmapCostBytes(cols)).
  size_t EntryBytes(size_t n) const {
    return n * (bytes_per_entry_ - kEntryBytesIdOnly) +
           std::min(n * kEntryBytesIdOnly, id_bytes_cap_);
  }

  /// Number of live (non-NULL) lists.
  size_t live_lists() const { return live_lists_; }

  /// Physical arena bytes (diagnostics; never part of bytes()).
  size_t arena_bytes() const { return arena_.slab_bytes(); }

  MemoryTracker* tracker() const { return tracker_; }

 private:
  struct Header {
    CandidateArena::Block block;
    uint64_t* sidecar = nullptr;
    uint32_t size = 0;
  };

  void ApplySizeDelta(Header* h, size_t new_size) {
    const size_t old_size = h->size;
    h->size = static_cast<uint32_t>(new_size);
    total_entries_ += new_size;
    total_entries_ -= old_size;
    const size_t old_bytes = EntryBytes(old_size);
    const size_t new_bytes = EntryBytes(new_size);
    charged_entry_bytes_ += new_bytes;
    charged_entry_bytes_ -= old_bytes;
    if (new_bytes > old_bytes) {
      tracker_->Add(new_bytes - old_bytes);
    } else {
      tracker_->Sub(old_bytes - new_bytes);
    }
    if (total_entries_ > peak_entries_) peak_entries_ = total_entries_;
    if (total_entries_ > interval_peak_entries_) {
      interval_peak_entries_ = total_entries_;
    }
  }

  CandidateArena arena_;
  std::vector<Header> lists_;
  std::vector<uint8_t> created_;
  size_t bytes_per_entry_;
  size_t id_bytes_cap_;
  size_t total_entries_ = 0;
  size_t charged_entry_bytes_ = 0;
  size_t live_lists_ = 0;
  size_t peak_entries_ = 0;
  size_t interval_peak_entries_ = 0;
  bool sidecars_enabled_ = false;
  size_t sidecar_words_ = 0;
  std::vector<std::unique_ptr<uint64_t[]>> sidecar_pool_;
  std::vector<uint64_t*> sidecar_free_;
  MemoryTracker* tracker_;
};

}  // namespace dmc

#endif  // DMC_CORE_MISS_COUNTER_TABLE_H_
