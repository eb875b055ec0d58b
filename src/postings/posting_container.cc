#include "postings/posting_container.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"
#include "util/random.h"

#if defined(__x86_64__)
#define DMC_POSTINGS_X86 1
#include <immintrin.h>
#endif

namespace dmc {
namespace {

constexpr uint32_t kLowMask = PostingContainer::kChunkSpan - 1;
constexpr uint32_t kWords = PostingContainer::kBitmapWords;

uint64_t AndPopcountPortable(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += static_cast<uint64_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return total;
}

#ifdef DMC_POSTINGS_X86
__attribute__((target("avx2,popcnt"))) uint64_t AndPopcountAvx2(
    const uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t total = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i x = _mm256_and_si256(va, vb);
    total += static_cast<uint64_t>(
        __builtin_popcountll(static_cast<uint64_t>(_mm256_extract_epi64(x, 0))) +
        __builtin_popcountll(static_cast<uint64_t>(_mm256_extract_epi64(x, 1))) +
        __builtin_popcountll(static_cast<uint64_t>(_mm256_extract_epi64(x, 2))) +
        __builtin_popcountll(static_cast<uint64_t>(_mm256_extract_epi64(x, 3))));
  }
  for (; i < n; ++i) {
    total += static_cast<uint64_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return total;
}

bool DetectAvx2Popcnt() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt");
}
#endif  // DMC_POSTINGS_X86

uint64_t AndPopcount(const uint64_t* a, const uint64_t* b, size_t n) {
#ifdef DMC_POSTINGS_X86
  static const bool kHaveAvx2 = DetectAvx2Popcnt();
  if (kHaveAvx2) return AndPopcountAvx2(a, b, n);
#endif
  return AndPopcountPortable(a, b, n);
}

/// Sets bits [s, l] (inclusive) in a kWords-long word array.
void FillRange(uint64_t* words, uint32_t s, uint32_t l) {
  const uint32_t ws = s / 64;
  const uint32_t we = l / 64;
  const uint64_t first = ~0ULL << (s % 64);
  const uint64_t last =
      (l % 64 == 63) ? ~0ULL : ((1ULL << ((l % 64) + 1)) - 1);
  if (ws == we) {
    words[ws] |= first & last;
    return;
  }
  words[ws] |= first;
  for (uint32_t w = ws + 1; w < we; ++w) words[w] = ~0ULL;
  words[we] |= last;
}

/// popcount of bits [s, l] (inclusive) in a kWords-long word array.
uint64_t CountBitsInRange(const uint64_t* words, uint32_t s, uint32_t l) {
  const uint32_t ws = s / 64;
  const uint32_t we = l / 64;
  const uint64_t first = ~0ULL << (s % 64);
  const uint64_t last =
      (l % 64 == 63) ? ~0ULL : ((1ULL << ((l % 64) + 1)) - 1);
  if (ws == we) {
    return static_cast<uint64_t>(__builtin_popcountll(words[ws] & first & last));
  }
  uint64_t n = static_cast<uint64_t>(__builtin_popcountll(words[ws] & first));
  for (uint32_t w = ws + 1; w < we; ++w) {
    n += static_cast<uint64_t>(__builtin_popcountll(words[w]));
  }
  return n + static_cast<uint64_t>(__builtin_popcountll(words[we] & last));
}

uint32_t CountRunsArray(const std::vector<uint16_t>& slots) {
  uint32_t runs = 0;
  uint32_t prev = 0;
  bool have_prev = false;
  for (const uint16_t v : slots) {
    if (!have_prev || v != prev + 1) ++runs;
    prev = v;
    have_prev = true;
  }
  return runs;
}

uint32_t CountRunsWords(const uint64_t* words) {
  // A run starts at every set bit whose predecessor bit is clear.
  uint32_t runs = 0;
  uint64_t carry = 0;  // MSB of the previous word
  for (uint32_t w = 0; w < kWords; ++w) {
    const uint64_t starts = words[w] & ~((words[w] << 1) | carry);
    runs += static_cast<uint32_t>(__builtin_popcountll(starts));
    carry = words[w] >> 63;
  }
  return runs;
}

uint64_t IntersectSortedU16(const std::vector<uint16_t>& small,
                            const std::vector<uint16_t>& big) {
  // Caller guarantees small.size() <= big.size(). Gallop (binary probe
  // per element) once the size skew pays for the log factor; otherwise
  // a plain two-pointer walk.
  uint64_t n = 0;
  if (small.size() * 16 < big.size()) {
    for (const uint16_t v : small) {
      n += std::binary_search(big.begin(), big.end(), v) ? 1 : 0;
    }
    return n;
  }
  size_t i = 0;
  size_t j = 0;
  while (i < small.size() && j < big.size()) {
    const uint16_t a = small[i];
    const uint16_t b = big[j];
    n += (a == b) ? 1 : 0;
    i += (a <= b) ? 1 : 0;
    j += (b <= a) ? 1 : 0;
  }
  return n;
}

}  // namespace

PostingContainer PostingContainer::FromSorted(std::span<const uint32_t> ids) {
  PostingContainer p;
  for (const uint32_t id : ids) p.Append(id);
  p.Optimize();
  return p;
}

void PostingContainer::Append(uint32_t id) {
  const uint32_t key = id >> kChunkShift;
  const uint16_t lo = static_cast<uint16_t>(id & kLowMask);
  if (chunks_.empty() || chunks_.back().key != key) {
    DMC_CHECK(chunks_.empty() || chunks_.back().key < key);
    if (!chunks_.empty()) SealChunk(&chunks_.back());
    chunks_.emplace_back();
    chunks_.back().key = key;
  }
  Chunk& c = chunks_.back();
  switch (c.format) {
    case PostingChunkFormat::kArray:
      DMC_CHECK(c.slots.empty() || lo > c.slots.back());
      c.slots.push_back(lo);
      ++c.card;
      if (c.card > kArrayMaxIds) ArrayToBitmap(&c);
      break;
    case PostingChunkFormat::kBitmap: {
      uint64_t& word = c.words[lo / 64];
      const uint64_t bit = 1ULL << (lo % 64);
      DMC_CHECK((word & bit) == 0);
      word |= bit;
      ++c.card;
      break;
    }
    case PostingChunkFormat::kRun: {
      const uint16_t last = c.slots.back();
      DMC_CHECK(lo > last);
      if (lo == last + 1) {
        c.slots.back() = lo;  // extend the final run
      } else {
        c.slots.push_back(lo);
        c.slots.push_back(lo);
      }
      ++c.card;
      break;
    }
  }
  ++cardinality_;
}

void PostingContainer::Optimize() {
  for (Chunk& c : chunks_) SealChunk(&c);
}

void PostingContainer::ArrayToBitmap(Chunk* c) {
  std::vector<uint64_t> words(kWords, 0);
  for (const uint16_t v : c->slots) words[v / 64] |= 1ULL << (v % 64);
  c->words = std::move(words);
  c->slots.clear();
  c->slots.shrink_to_fit();
  c->format = PostingChunkFormat::kBitmap;
}

void PostingContainer::ChunkWords(const Chunk& c, uint64_t* words) {
  switch (c.format) {
    case PostingChunkFormat::kArray:
      for (const uint16_t v : c.slots) words[v / 64] |= 1ULL << (v % 64);
      break;
    case PostingChunkFormat::kBitmap:
      std::memcpy(words, c.words.data(), kWords * sizeof(uint64_t));
      break;
    case PostingChunkFormat::kRun:
      for (size_t i = 0; i + 1 < c.slots.size(); i += 2) {
        FillRange(words, c.slots[i], c.slots[i + 1]);
      }
      break;
  }
}

void PostingContainer::SealChunk(Chunk* c) {
  if (c->card == 0) return;
  uint32_t runs = 0;
  switch (c->format) {
    case PostingChunkFormat::kArray:
      runs = CountRunsArray(c->slots);
      break;
    case PostingChunkFormat::kBitmap:
      runs = CountRunsWords(c->words.data());
      break;
    case PostingChunkFormat::kRun:
      runs = static_cast<uint32_t>(c->slots.size() / 2);
      break;
  }
  const size_t array_cost = 2u * c->card;
  const size_t run_cost = 4u * runs;
  const size_t bitmap_cost = kWords * sizeof(uint64_t);
  PostingChunkFormat target;
  if (array_cost <= run_cost && array_cost <= bitmap_cost) {
    target = PostingChunkFormat::kArray;
  } else if (run_cost <= bitmap_cost) {
    target = PostingChunkFormat::kRun;
  } else {
    target = PostingChunkFormat::kBitmap;
  }
  if (target == c->format) {
    c->slots.shrink_to_fit();
    return;
  }
  // Decode to a scratch bitmap, then re-encode: sealing runs once per
  // chunk lifetime, so the O(chunk-span) round trip is irrelevant.
  std::vector<uint64_t> words(kWords, 0);
  ChunkWords(*c, words.data());
  c->slots.clear();
  c->words.clear();
  switch (target) {
    case PostingChunkFormat::kArray:
      c->slots.reserve(c->card);
      for (uint32_t w = 0; w < kWords; ++w) {
        uint64_t word = words[w];
        while (word != 0) {
          const int bit = __builtin_ctzll(word);
          c->slots.push_back(static_cast<uint16_t>(w * 64 + bit));
          word &= word - 1;
        }
      }
      break;
    case PostingChunkFormat::kRun: {
      c->slots.reserve(2 * runs);
      int32_t run_start = -1;
      int32_t prev = -2;
      for (uint32_t w = 0; w < kWords; ++w) {
        uint64_t word = words[w];
        while (word != 0) {
          const int32_t v = static_cast<int32_t>(w * 64) + __builtin_ctzll(word);
          if (v != prev + 1) {
            if (run_start >= 0) {
              c->slots.push_back(static_cast<uint16_t>(run_start));
              c->slots.push_back(static_cast<uint16_t>(prev));
            }
            run_start = v;
          }
          prev = v;
          word &= word - 1;
        }
      }
      if (run_start >= 0) {
        c->slots.push_back(static_cast<uint16_t>(run_start));
        c->slots.push_back(static_cast<uint16_t>(prev));
      }
      break;
    }
    case PostingChunkFormat::kBitmap:
      c->words = std::move(words);
      break;
  }
  c->slots.shrink_to_fit();
  c->format = target;
}

bool PostingContainer::ChunkContains(const Chunk& c, uint16_t lo) {
  switch (c.format) {
    case PostingChunkFormat::kArray:
      return std::binary_search(c.slots.begin(), c.slots.end(), lo);
    case PostingChunkFormat::kBitmap:
      return (c.words[lo / 64] >> (lo % 64)) & 1;
    case PostingChunkFormat::kRun: {
      // Last run whose start is <= lo, via binary search on pair index.
      size_t nruns = c.slots.size() / 2;
      size_t first = 0;
      while (nruns > 0) {
        const size_t half = nruns / 2;
        const size_t mid = first + half;
        if (c.slots[2 * mid] <= lo) {
          first = mid + 1;
          nruns -= half + 1;
        } else {
          nruns = half;
        }
      }
      if (first == 0) return false;
      return lo <= c.slots[2 * (first - 1) + 1];
    }
  }
  return false;
}

uint64_t PostingContainer::ChunkCountBelow(const Chunk& c, uint16_t lo) {
  if (lo == 0) return 0;
  switch (c.format) {
    case PostingChunkFormat::kArray:
      return static_cast<uint64_t>(
          std::lower_bound(c.slots.begin(), c.slots.end(), lo) -
          c.slots.begin());
    case PostingChunkFormat::kBitmap:
      return CountBitsInRange(c.words.data(), 0,
                              static_cast<uint32_t>(lo) - 1);
    case PostingChunkFormat::kRun: {
      uint64_t n = 0;
      for (size_t i = 0; i + 1 < c.slots.size(); i += 2) {
        if (c.slots[i] >= lo) break;
        const uint16_t last = std::min<uint16_t>(
            c.slots[i + 1], static_cast<uint16_t>(lo - 1));
        n += static_cast<uint64_t>(last) - c.slots[i] + 1;
      }
      return n;
    }
  }
  return 0;
}

uint64_t PostingContainer::Rank(uint32_t bound) const {
  const uint32_t bound_key = bound >> kChunkShift;
  const uint16_t bound_low = static_cast<uint16_t>(bound & kLowMask);
  uint64_t n = 0;
  for (const Chunk& c : chunks_) {
    if (c.key < bound_key) {
      n += c.card;
      continue;
    }
    if (c.key == bound_key) n += ChunkCountBelow(c, bound_low);
    break;
  }
  return n;
}

uint32_t PostingContainer::Select(uint64_t k) const {
  DMC_CHECK(k < cardinality_);
  for (const Chunk& c : chunks_) {
    if (k >= c.card) {
      k -= c.card;
      continue;
    }
    const uint32_t base = c.key << kChunkShift;
    switch (c.format) {
      case PostingChunkFormat::kArray:
        return base | c.slots[k];
      case PostingChunkFormat::kBitmap:
        for (uint32_t w = 0; w < kWords; ++w) {
          const uint32_t pc =
              static_cast<uint32_t>(__builtin_popcountll(c.words[w]));
          if (k >= pc) {
            k -= pc;
            continue;
          }
          uint64_t word = c.words[w];
          for (; k > 0; --k) word &= word - 1;
          return base | (w * 64 + static_cast<uint32_t>(__builtin_ctzll(word)));
        }
        break;
      case PostingChunkFormat::kRun:
        for (size_t i = 0; i + 1 < c.slots.size(); i += 2) {
          const uint64_t len =
              static_cast<uint64_t>(c.slots[i + 1]) - c.slots[i] + 1;
          if (k < len) return base | (c.slots[i] + static_cast<uint32_t>(k));
          k -= len;
        }
        break;
    }
    break;
  }
  DMC_CHECK(false);  // corrupt cardinality
  return 0;
}

uint64_t PostingContainer::ChunkIntersect(const Chunk& a, const Chunk& b) {
  // Normalize so a.format <= b.format (enum order array < bitmap < run).
  const Chunk& x = a.format <= b.format ? a : b;
  const Chunk& y = a.format <= b.format ? b : a;
  switch (x.format) {
    case PostingChunkFormat::kArray:
      switch (y.format) {
        case PostingChunkFormat::kArray:
          return x.slots.size() <= y.slots.size()
                     ? IntersectSortedU16(x.slots, y.slots)
                     : IntersectSortedU16(y.slots, x.slots);
        case PostingChunkFormat::kBitmap: {
          uint64_t n = 0;
          for (const uint16_t v : x.slots) {
            n += (y.words[v / 64] >> (v % 64)) & 1;
          }
          return n;
        }
        case PostingChunkFormat::kRun: {
          uint64_t n = 0;
          size_t ri = 0;
          const size_t nr = y.slots.size();
          for (const uint16_t v : x.slots) {
            while (ri + 1 < nr && y.slots[ri + 1] < v) ri += 2;
            if (ri + 1 >= nr) break;
            n += (y.slots[ri] <= v) ? 1 : 0;
          }
          return n;
        }
      }
      break;
    case PostingChunkFormat::kBitmap:
      switch (y.format) {
        case PostingChunkFormat::kBitmap:
          return AndPopcount(x.words.data(), y.words.data(), kWords);
        case PostingChunkFormat::kRun: {
          uint64_t n = 0;
          for (size_t i = 0; i + 1 < y.slots.size(); i += 2) {
            n += CountBitsInRange(x.words.data(), y.slots[i], y.slots[i + 1]);
          }
          return n;
        }
        default:
          break;
      }
      break;
    case PostingChunkFormat::kRun: {
      // run × run: sum of pairwise overlap lengths.
      uint64_t n = 0;
      size_t i = 0;
      size_t j = 0;
      while (i + 1 < x.slots.size() && j + 1 < y.slots.size()) {
        const int32_t s = std::max<int32_t>(x.slots[i], y.slots[j]);
        const int32_t e = std::min<int32_t>(x.slots[i + 1], y.slots[j + 1]);
        if (e >= s) n += static_cast<uint64_t>(e - s + 1);
        if (x.slots[i + 1] <= y.slots[j + 1]) {
          i += 2;
        } else {
          j += 2;
        }
      }
      return n;
    }
  }
  return 0;
}

uint64_t PostingContainer::ChunkIntersectFrom(const Chunk& a, const Chunk& b,
                                              uint16_t lo) {
  if (a.format == PostingChunkFormat::kBitmap &&
      b.format == PostingChunkFormat::kBitmap) {
    const uint32_t w0 = lo / 64;
    const uint64_t head =
        (a.words[w0] & b.words[w0]) & (~0ULL << (lo % 64));
    return static_cast<uint64_t>(__builtin_popcountll(head)) +
           AndPopcount(a.words.data() + w0 + 1, b.words.data() + w0 + 1,
                       kWords - w0 - 1);
  }
  // Partial-chunk trims happen at most once per suffix query: iterate the
  // ids of `a` at/above lo and probe `b`.
  uint64_t n = 0;
  switch (a.format) {
    case PostingChunkFormat::kArray: {
      auto it = std::lower_bound(a.slots.begin(), a.slots.end(), lo);
      for (; it != a.slots.end(); ++it) n += ChunkContains(b, *it) ? 1 : 0;
      break;
    }
    case PostingChunkFormat::kBitmap:
      for (uint32_t w = lo / 64; w < kWords; ++w) {
        uint64_t word = a.words[w];
        if (w == lo / 64) word &= ~0ULL << (lo % 64);
        while (word != 0) {
          const int bit = __builtin_ctzll(word);
          n += ChunkContains(b, static_cast<uint16_t>(w * 64 + bit)) ? 1 : 0;
          word &= word - 1;
        }
      }
      break;
    case PostingChunkFormat::kRun:
      for (size_t i = 0; i + 1 < a.slots.size(); i += 2) {
        if (a.slots[i + 1] < lo) continue;
        const uint16_t s = std::max<uint16_t>(a.slots[i], lo);
        for (uint32_t v = s; v <= a.slots[i + 1]; ++v) {
          n += ChunkContains(b, static_cast<uint16_t>(v)) ? 1 : 0;
        }
      }
      break;
  }
  return n;
}

uint64_t PostingContainer::IntersectCount(const PostingContainer& b) const {
  uint64_t n = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < chunks_.size() && j < b.chunks_.size()) {
    const uint32_t ka = chunks_[i].key;
    const uint32_t kb = b.chunks_[j].key;
    if (ka == kb) {
      n += ChunkIntersect(chunks_[i], b.chunks_[j]);
      ++i;
      ++j;
    } else if (ka < kb) {
      ++i;
    } else {
      ++j;
    }
  }
  return n;
}

uint64_t PostingContainer::IntersectCountFrom(uint32_t lo,
                                              const PostingContainer& b) const {
  const uint32_t lo_key = lo >> kChunkShift;
  const uint16_t lo_low = static_cast<uint16_t>(lo & kLowMask);
  uint64_t n = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < chunks_.size() && j < b.chunks_.size()) {
    const uint32_t ka = chunks_[i].key;
    const uint32_t kb = b.chunks_[j].key;
    if (ka == kb) {
      if (ka > lo_key || (ka == lo_key && lo_low == 0)) {
        n += ChunkIntersect(chunks_[i], b.chunks_[j]);
      } else if (ka == lo_key) {
        n += ChunkIntersectFrom(chunks_[i], b.chunks_[j], lo_low);
      }
      ++i;
      ++j;
    } else if (ka < kb) {
      ++i;
    } else {
      ++j;
    }
  }
  return n;
}

uint64_t PostingContainer::IntersectCountBelow(
    uint32_t hi, const PostingContainer& b) const {
  const uint32_t hi_key = hi >> kChunkShift;
  const uint16_t hi_low = static_cast<uint16_t>(hi & kLowMask);
  uint64_t n = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < chunks_.size() && j < b.chunks_.size()) {
    const uint32_t ka = chunks_[i].key;
    const uint32_t kb = b.chunks_[j].key;
    if (ka > hi_key || kb > hi_key) break;
    if (ka == kb) {
      if (ka < hi_key) {
        n += ChunkIntersect(chunks_[i], b.chunks_[j]);
      } else if (hi_low != 0) {
        // Only the boundary chunk needs a partial count: everything in
        // the chunk minus the suffix at/above hi_low.
        n += ChunkIntersect(chunks_[i], b.chunks_[j]) -
             ChunkIntersectFrom(chunks_[i], b.chunks_[j], hi_low);
      }
      ++i;
      ++j;
    } else if (ka < kb) {
      ++i;
    } else {
      ++j;
    }
  }
  return n;
}

void PostingContainer::EvictBelowAndShift(uint32_t bound) {
  // Rebuild rather than edit in place: a fresh container appended from
  // the shifted survivors reproduces, bit for bit, the layout of a
  // container that never saw the evicted prefix (chunk splits, format
  // upgrades, and vector capacities all depend only on the appended
  // sequence). That is what makes windowed MemoryBytes() byte-identical
  // to a fresh mine of the window contents.
  PostingContainer out;
  ForEach([bound, &out](uint32_t id) {
    if (id >= bound) out.Append(id - bound);
  });
  *this = std::move(out);
}

uint64_t PostingContainer::SuffixIntersectCount(uint64_t skip_a,
                                                const PostingContainer& b,
                                                uint64_t skip_b) const {
  if (skip_a >= cardinality_ || skip_b >= b.cardinality_) return 0;
  // Suffix-by-index equals suffix-by-value on a strictly sorted set: the
  // combined constraint is id >= max of the two suffix heads.
  const uint32_t lo = std::max(Select(skip_a), b.Select(skip_b));
  return IntersectCountFrom(lo, b);
}

void PostingContainer::AppendChunkFromWords(uint32_t key,
                                            const uint64_t* words) {
  uint32_t card = 0;
  for (uint32_t w = 0; w < kWords; ++w) {
    card += static_cast<uint32_t>(__builtin_popcountll(words[w]));
  }
  if (card == 0) return;
  Chunk c;
  c.key = key;
  c.format = PostingChunkFormat::kBitmap;
  c.card = card;
  c.words.assign(words, words + kWords);
  SealChunk(&c);
  DMC_CHECK(chunks_.empty() || chunks_.back().key < key);
  chunks_.push_back(std::move(c));
  cardinality_ += card;
}

PostingContainer PostingContainer::Intersect(const PostingContainer& b) const {
  PostingContainer out;
  std::vector<uint64_t> wa(kWords);
  std::vector<uint64_t> wb(kWords);
  size_t i = 0;
  size_t j = 0;
  while (i < chunks_.size() && j < b.chunks_.size()) {
    const uint32_t ka = chunks_[i].key;
    const uint32_t kb = b.chunks_[j].key;
    if (ka == kb) {
      std::fill(wa.begin(), wa.end(), 0);
      std::fill(wb.begin(), wb.end(), 0);
      ChunkWords(chunks_[i], wa.data());
      ChunkWords(b.chunks_[j], wb.data());
      for (uint32_t w = 0; w < kWords; ++w) wa[w] &= wb[w];
      out.AppendChunkFromWords(ka, wa.data());
      ++i;
      ++j;
    } else if (ka < kb) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

uint64_t PostingContainer::Hash() const {
  uint64_t h = 0xcbf29ce484222325ULL ^ (cardinality_ * 0x9e3779b97f4a7c15ULL);
  ForEach([&h](uint32_t id) {
    h = (h ^ Mix64(id)) * 0x100000001b3ULL;
  });
  return h;
}

bool PostingContainer::operator==(const PostingContainer& b) const {
  if (cardinality_ != b.cardinality_) return false;
  // Equal-size sets are equal iff the intersection has full size; this
  // keeps equality independent of chunk formats.
  return IntersectCount(b) == cardinality_;
}

std::vector<uint32_t> PostingContainer::ToVector() const {
  std::vector<uint32_t> out;
  out.reserve(cardinality_);
  ForEach([&out](uint32_t id) { out.push_back(id); });
  return out;
}

size_t PostingContainer::MemoryBytes() const {
  size_t bytes = chunks_.capacity() * sizeof(Chunk);
  for (const Chunk& c : chunks_) {
    bytes += c.slots.capacity() * sizeof(uint16_t) +
             c.words.capacity() * sizeof(uint64_t);
  }
  return bytes;
}

PostingContainer::FormatCounts PostingContainer::ChunkFormats() const {
  FormatCounts fc;
  for (const Chunk& c : chunks_) {
    switch (c.format) {
      case PostingChunkFormat::kArray:
        ++fc.array;
        break;
      case PostingChunkFormat::kBitmap:
        ++fc.bitmap;
        break;
      case PostingChunkFormat::kRun:
        ++fc.run;
        break;
    }
  }
  return fc;
}

}  // namespace dmc
