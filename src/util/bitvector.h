// Fixed-size bit vector with an AND-NOT popcount. Its one user is the
// incremental miner's SuffixBitmapCache (incr/incr_miner.cc): per-column
// bitmaps of the rows past a boundary, so each pair's exact miss count
// is a word-parallel AndNotCount instead of a posting merge.

#ifndef DMC_UTIL_BITVECTOR_H_
#define DMC_UTIL_BITVECTOR_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace dmc {

/// Densely packed bit vector of a fixed logical size. Bits beyond size()
/// in the last word are kept zero (class invariant), so whole-word
/// popcounts are exact.
class BitVector {
 public:
  BitVector() = default;

  /// All bits start cleared.
  explicit BitVector(size_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  BitVector(const BitVector&) = default;
  BitVector& operator=(const BitVector&) = default;
  BitVector(BitVector&&) = default;
  BitVector& operator=(BitVector&&) = default;

  size_t size() const { return num_bits_; }

  // Set and the counting kernels are defined inline: they sit in the
  // innermost loops of the incremental update/regen passes, where the
  // per-call overhead of an out-of-line body rivals the body itself
  // (a window's column fits in a handful of words).
  void Set(size_t i) {
    DMC_CHECK_LT(i, num_bits_);
    words_[i >> 6] |= uint64_t{1} << (i & 63);
  }

  /// popcount(*this & ~other) — the "miss count" kernel (rows where this
  /// column is 1 and the other is 0). Sizes must match.
  size_t AndNotCount(const BitVector& other) const {
    DMC_CHECK_EQ(num_bits_, other.num_bits_);
    size_t total = 0;
    for (size_t i = 0; i < words_.size(); ++i) {
      total +=
          static_cast<size_t>(std::popcount(words_[i] & ~other.words_[i]));
    }
    return total;
  }

  /// AndNotCount with a budget: early-exits once the running count
  /// exceeds `cap` and returns that partial total. The result is exact
  /// whenever it is <= cap; any return value > cap only certifies that
  /// the true count also exceeds cap. Lets miss-budget checks on long
  /// vectors stop as soon as a pair is disqualified.
  size_t AndNotCountCapped(const BitVector& other, size_t cap) const {
    DMC_CHECK_EQ(num_bits_, other.num_bits_);
    size_t total = 0;
    const size_t n = words_.size();
    size_t i = 0;
    while (i < n) {
      const size_t stop = i + 8 < n ? i + 8 : n;
      for (; i < stop; ++i) {
        total +=
            static_cast<size_t>(std::popcount(words_[i] & ~other.words_[i]));
      }
      if (total > cap) return total;
    }
    return total;
  }

  /// Heap bytes used by the word storage.
  size_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }

 private:
  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace dmc

#endif  // DMC_UTIL_BITVECTOR_H_
