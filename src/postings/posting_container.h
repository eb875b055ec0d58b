// Hybrid compressed posting container — the single representation for
// "sorted set of row ids" shared by the matrix layer, the miss-counter
// accounting model, the incremental miner's column postings, and the
// bitmap-tail phases of the batch scans.
//
// Layout follows the Roaring idea: the id space is cut into 64 Ki-wide
// chunks (id >> 16 selects the chunk) and each chunk independently picks
// the cheapest of three physical formats for its 16-bit low halves:
//
//   - kArray:  sorted std::vector<uint16_t> of ids        (2 bytes/id)
//   - kBitmap: 1024 packed uint64 words                   (8192 bytes)
//   - kRun:    sorted (start, last) uint16 pairs          (4 bytes/run)
//
// A chunk is appended to in array form, upgrades itself to a bitmap once
// the array would cost more (> 4096 ids), and is "sealed" into its
// globally cheapest format the moment a later chunk is started (or on an
// explicit Optimize() call). This turns the paper's global §4.3 rule —
// "switch the whole counter table to bitmaps once the byte budget is
// hit" — into a local, per-64Ki-chunk decision: dense regions become
// bitmaps, sparse regions stay arrays, and constant regions collapse to
// runs, with no global mode flag and no cliff.
//
// Bytes: MemoryBytes() reports real heap usage (vector capacities
// included). BitmapCostBytes(universe) is the cost model's bound for
// holding `universe` ids as packed bitmap chunks (a chunk header plus a
// bit per id) — the miss-counter table uses it to cap each candidate
// list's charge (a list can never cost more than its bitmap form, which
// is exactly the §4.3 switch bound made per-list).
//
// Ids must be appended strictly ascending; every query treats the
// container as an immutable sorted set.

#ifndef DMC_POSTINGS_POSTING_CONTAINER_H_
#define DMC_POSTINGS_POSTING_CONTAINER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dmc {

enum class PostingChunkFormat : uint8_t { kArray = 0, kBitmap = 1, kRun = 2 };

class PostingContainer {
 public:
  static constexpr uint32_t kChunkShift = 16;
  static constexpr uint32_t kChunkSpan = 1u << kChunkShift;
  static constexpr uint32_t kBitmapWords = kChunkSpan / 64;  // 1024
  /// Array chunks upgrade to bitmaps past this many ids (2 bytes/id vs a
  /// fixed 8192-byte bitmap: the break-even point).
  static constexpr uint32_t kArrayMaxIds = kChunkSpan / 16;  // 4096
  /// Logical per-chunk bookkeeping charge (key, format, cardinality).
  static constexpr size_t kChunkHeaderBytes = 16;

  /// Cost-model bytes for holding `universe` consecutive ids' worth of
  /// bitmap chunks: the per-list §4.3 switch bound.
  static constexpr size_t BitmapCostBytes(uint64_t universe) {
    return kChunkHeaderBytes + (universe + 7) / 8;
  }

  PostingContainer() = default;

  /// Builds a sealed container from strictly-ascending ids.
  static PostingContainer FromSorted(std::span<const uint32_t> ids);

  /// Appends one id; must be strictly greater than every id present.
  void Append(uint32_t id);
  /// Re-seals every chunk into its cheapest format. Idempotent.
  void Optimize();

  /// Drops every id < bound and renumbers the survivors down by `bound`
  /// (id -> id - bound) — the sliding window's prefix trim. The
  /// container is rebuilt by appending the shifted survivors into a
  /// fresh instance, so its physical layout (chunk formats, vector
  /// capacities, MemoryBytes) is identical to a container that only
  /// ever held the surviving window.
  void EvictBelowAndShift(uint32_t bound);

  uint64_t cardinality() const { return cardinality_; }
  bool empty() const { return cardinality_ == 0; }
  /// k-th smallest id, 0-based. Precondition: k < cardinality().
  uint32_t Select(uint64_t k) const;
  /// |{x ∈ this : x < bound}| — the index the sliding window's evicted
  /// prefix ends at. O(chunks below bound).
  uint64_t Rank(uint32_t bound) const;

  std::vector<uint32_t> ToVector() const;

  /// Calls fn(uint32_t id) for every id in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Chunk& c : chunks_) ForEachInChunk(c, fn);
  }

  /// |this ∩ b|.
  uint64_t IntersectCount(const PostingContainer& b) const;
  /// |{x ∈ this ∩ b : x >= lo}|.
  uint64_t IntersectCountFrom(uint32_t lo, const PostingContainer& b) const;
  /// |{x ∈ this ∩ b : x < hi}| — the evicted-prefix intersection the
  /// windowed miner subtracts from held counts. O(chunks below hi).
  uint64_t IntersectCountBelow(uint32_t hi, const PostingContainer& b) const;
  /// |this \ b| = cardinality() - |this ∩ b|.
  uint64_t AndNotCount(const PostingContainer& b) const {
    return cardinality_ - IntersectCount(b);
  }
  /// |suffix(this, skip_a) ∩ suffix(b, skip_b)| where suffix(X, k) drops
  /// the k smallest ids of X — the incremental miner's boundary
  /// semantics (k is an earlier ones() value).
  uint64_t SuffixIntersectCount(uint64_t skip_a, const PostingContainer& b,
                                uint64_t skip_b) const;

  /// Materialized intersection (sealed result).
  PostingContainer Intersect(const PostingContainer& b) const;

  /// Content hash: equal sets hash equal regardless of chunk formats.
  uint64_t Hash() const;
  /// Set equality, format-independent.
  bool operator==(const PostingContainer& b) const;
  bool operator!=(const PostingContainer& b) const { return !(*this == b); }

  /// Physical heap bytes (vector capacities + chunk headers).
  size_t MemoryBytes() const;

  struct FormatCounts {
    size_t array = 0;
    size_t bitmap = 0;
    size_t run = 0;
  };
  FormatCounts ChunkFormats() const;

 private:
  struct Chunk {
    uint32_t key = 0;  // id >> kChunkShift
    PostingChunkFormat format = PostingChunkFormat::kArray;
    uint32_t card = 0;
    std::vector<uint16_t> slots;  // kArray: ids; kRun: (start, last) pairs
    std::vector<uint64_t> words;  // kBitmap: kBitmapWords packed words
  };

  static void SealChunk(Chunk* c);
  static void ArrayToBitmap(Chunk* c);
  static bool ChunkContains(const Chunk& c, uint16_t lo);
  static uint64_t ChunkCountBelow(const Chunk& c, uint16_t lo);
  static uint64_t ChunkIntersect(const Chunk& a, const Chunk& b);
  static uint64_t ChunkIntersectFrom(const Chunk& a, const Chunk& b,
                                     uint16_t lo);
  static void ChunkWords(const Chunk& c, uint64_t* words);  // decode to bitmap

  template <typename Fn>
  static void ForEachInChunk(const Chunk& c, Fn&& fn) {
    const uint32_t base = c.key << kChunkShift;
    switch (c.format) {
      case PostingChunkFormat::kArray:
        for (const uint16_t v : c.slots) fn(base | v);
        break;
      case PostingChunkFormat::kBitmap:
        for (uint32_t w = 0; w < kBitmapWords; ++w) {
          uint64_t word = c.words[w];
          while (word != 0) {
            const int bit = __builtin_ctzll(word);
            fn(base | (w * 64 + static_cast<uint32_t>(bit)));
            word &= word - 1;
          }
        }
        break;
      case PostingChunkFormat::kRun:
        for (size_t i = 0; i + 1 < c.slots.size(); i += 2) {
          for (uint32_t v = c.slots[i]; v <= c.slots[i + 1]; ++v) {
            fn(base | v);
          }
        }
        break;
    }
  }

  /// From a set of decoded words, appends a sealed chunk (no-op when all
  /// words are zero).
  void AppendChunkFromWords(uint32_t key, const uint64_t* words);

  std::vector<Chunk> chunks_;  // ascending by key
  uint64_t cardinality_ = 0;
};

}  // namespace dmc

#endif  // DMC_POSTINGS_POSTING_CONTAINER_H_
