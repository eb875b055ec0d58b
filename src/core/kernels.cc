#include "core/kernels.h"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#define DMC_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace dmc {

namespace {

bool DetectAvx2() {
#ifdef DMC_KERNELS_X86
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

// Portable bodies for the vector sweeps: the exact scalar predicates.
// They are both the non-x86 fallback and the tail loop of the AVX2
// variants (start at entry j, write head w).
size_t ImpSweepPortable(ColumnId* cand, uint32_t* miss, size_t n,
                        const uint8_t* mask, uint32_t budget, size_t j,
                        size_t w) {
  for (; j < n; ++j) {
    const ColumnId ck = cand[j];
    const uint32_t hit = mask[ck] != 0 ? 1u : 0u;
    const uint32_t new_miss = miss[j] + 1u - hit;
    if (hit == 0 && new_miss > budget) continue;
    cand[w] = ck;
    miss[w] = new_miss;
    ++w;
  }
  return w;
}

size_t SimSweepPortable(ColumnId* cand, uint32_t* slack, size_t n,
                        const uint8_t* mask, const kernels::SimSweepParams& p,
                        size_t j, size_t w) {
  for (; j < n; ++j) {
    const ColumnId ck = cand[j];
    const int32_t hit = mask[ck] != 0 ? 1 : 0;
    const int32_t d = static_cast<int32_t>(slack[j]);
    if (p.rem_j - std::min(p.rem_j - 1 + hit, p.rem[ck]) > d) continue;
    cand[w] = ck;
    slack[w] = static_cast<uint32_t>(d - 1 + hit);
    ++w;
  }
  return w;
}

#ifdef DMC_KERNELS_X86

// 8-lane left-pack permutation table: kCompressLut.perm[mask] moves the
// lanes whose mask bit is set to the front, in order. 8 KiB, hot in L1
// for the whole scan.
struct CompressLut {
  alignas(32) uint32_t perm[256][8];
};

constexpr CompressLut MakeCompressLut() {
  CompressLut lut{};
  for (int m = 0; m < 256; ++m) {
    int w = 0;
    for (int b = 0; b < 8; ++b) {
      if ((m >> b) & 1) lut.perm[m][w++] = static_cast<uint32_t>(b);
    }
    for (; w < 8; ++w) lut.perm[m][w] = 0;
  }
  return lut;
}

constexpr CompressLut kCompressLut = MakeCompressLut();

// All-lanes masked gathers. GCC-12's unmasked gather intrinsics expand
// through _mm256_undefined_*() and trip -Wmaybe-uninitialized under
// -Werror; the masked forms take an initialized source and compile to
// the same vgatherdps/vgatherdpd with an all-ones mask.
__attribute__((target("avx2"))) inline __m256i GatherEpi32(
    const int* base, __m256i ids, const int scale) {
  // NOLINTNEXTLINE: scale must be a literal-like constant expression.
  return scale == 1
             ? _mm256_mask_i32gather_epi32(_mm256_setzero_si256(), base, ids,
                                           _mm256_set1_epi32(-1), 1)
             : _mm256_mask_i32gather_epi32(_mm256_setzero_si256(), base, ids,
                                           _mm256_set1_epi32(-1), 4);
}

__attribute__((target("avx2,popcnt"))) size_t ImpSweepAvx2(
    ColumnId* cand, uint32_t* miss, size_t n, const uint8_t* mask,
    uint32_t budget) {
  const __m256i vone = _mm256_set1_epi32(1);
  const __m256i vbyte = _mm256_set1_epi32(0xFF);
  const __m256i vbud = _mm256_set1_epi32(static_cast<int32_t>(budget));
  size_t j = 0, w = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256i ids =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cand + j));
    // The mask byte per candidate (32-bit gather; BeginRow pads the mask
    // so the 3 spill bytes of the last column are readable).
    const __m256i hit = _mm256_and_si256(
        GatherEpi32(reinterpret_cast<const int*>(mask), ids, 1), vbyte);
    const __m256i oldm =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(miss + j));
    const __m256i newm =
        _mm256_sub_epi32(_mm256_add_epi32(oldm, vone), hit);
    // keep = hit | (new_miss <= budget), unsigned compare via min.
    const __m256i hit_cmp = _mm256_cmpeq_epi32(hit, vone);
    const __m256i le =
        _mm256_cmpeq_epi32(_mm256_min_epu32(newm, vbud), newm);
    const __m256i keep = _mm256_or_si256(hit_cmp, le);
    const unsigned keep_mask = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(keep)));
    // All-keep blocks with no compaction pending write back what is
    // already there: an all-hit block leaves misses unchanged too, so
    // both stores can be skipped; otherwise only the miss lane moved.
    if (keep_mask == 0xFFu && w == j) {
      const unsigned hit_mask = static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_castsi256_ps(hit_cmp)));
      if (hit_mask != 0xFFu) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(miss + w), newm);
      }
      w += 8;
      continue;
    }
    const __m256i perm = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kCompressLut.perm[keep_mask]));
    // Unconditional 8-lane stores are safe: w <= j, so [w, w+8) stays
    // inside the list, and the lanes past the survivors are rewritten by
    // the next step or cut off by SetSize.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(cand + w),
                        _mm256_permutevar8x32_epi32(ids, perm));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(miss + w),
                        _mm256_permutevar8x32_epi32(newm, perm));
    w += static_cast<size_t>(__builtin_popcount(keep_mask));
  }
  // Every AVX2 kernel clears the upper ymm state before its scalar tail:
  // the tail is compiled without AVX, and SSE code run with dirty upper
  // halves pays a transition penalty or a false dependency per
  // instruction. GCC does not emit vzeroupper before these calls by
  // itself (tests/avx_upper_state_test.sh).
  _mm256_zeroupper();
  return ImpSweepPortable(cand, miss, n, mask, budget, j, w);
}

__attribute__((target("avx2,popcnt"))) size_t SimSweepAvx2(
    ColumnId* cand, uint32_t* slack, size_t n, const uint8_t* mask,
    const kernels::SimSweepParams& p) {
  const __m256i vone = _mm256_set1_epi32(1);
  const __m256i vbyte = _mm256_set1_epi32(0xFF);
  const __m256i vrem_j = _mm256_set1_epi32(p.rem_j);
  const __m256i vrem_j_m1 = _mm256_set1_epi32(p.rem_j - 1);
  size_t j = 0, w = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256i ids =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cand + j));
    const __m256i hit = _mm256_and_si256(
        GatherEpi32(reinterpret_cast<const int*>(mask), ids, 1), vbyte);
    const __m256i rem_k =
        GatherEpi32(reinterpret_cast<const int*>(p.rem), ids, 4);
    const __m256i oldd =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(slack + j));
    // Drop iff rem_j - min(rem_j - 1 + hit, rem_k) > slack; every term
    // fits int32 under kVectorSweepMaxRows.
    const __m256i need = _mm256_sub_epi32(
        vrem_j, _mm256_min_epi32(_mm256_add_epi32(vrem_j_m1, hit), rem_k));
    const unsigned keep_mask =
        ~static_cast<unsigned>(_mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_cmpgt_epi32(need, oldd)))) &
        0xFFu;
    const __m256i newd = _mm256_sub_epi32(_mm256_add_epi32(oldd, hit), vone);
    // Same store-skip as the implication sweep: all-keep with no
    // compaction pending rewrites identical candidate ids, and all-hit
    // additionally leaves the slacks unchanged.
    if (keep_mask == 0xFFu && w == j) {
      const unsigned hm = static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(hit,
                                                                    vone))));
      if (hm != 0xFFu) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(slack + w), newd);
      }
      w += 8;
      continue;
    }
    const __m256i perm = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kCompressLut.perm[keep_mask]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(cand + w),
                        _mm256_permutevar8x32_epi32(ids, perm));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(slack + w),
                        _mm256_permutevar8x32_epi32(newd, perm));
    w += static_cast<size_t>(__builtin_popcount(keep_mask));
  }
  _mm256_zeroupper();  // see ImpSweepAvx2
  return SimSweepPortable(cand, slack, n, mask, p, j, w);
}

#endif  // DMC_KERNELS_X86

}  // namespace

bool SimdKernelAvailable() {
  static const bool available = DetectAvx2();
  return available;
}

MergeKernel ResolveKernel(MergeKernel requested) {
  switch (requested) {
    case MergeKernel::kAuto:
      return SimdKernelAvailable() ? MergeKernel::kSimd
                                   : MergeKernel::kScalar;
    case MergeKernel::kSimd:
      return SimdKernelAvailable() ? MergeKernel::kSimd
                                   : MergeKernel::kScalar;
    case MergeKernel::kLegacy:
    case MergeKernel::kScalar:
      return requested;
  }
  return MergeKernel::kScalar;
}

const char* KernelName(MergeKernel k) {
  switch (k) {
    case MergeKernel::kAuto:
      return "auto";
    case MergeKernel::kLegacy:
      return "legacy";
    case MergeKernel::kScalar:
      return "scalar";
    case MergeKernel::kSimd:
      return "simd";
  }
  return "unknown";
}

namespace kernels {

bool VectorSweepAvailable() {
#ifdef DMC_KERNELS_X86
  return SimdKernelAvailable();
#else
  return false;
#endif
}

bool PreferVectorSweep(ColumnId num_columns, uint64_t rows,
                       uint64_t total_ones) {
  if (!VectorSweepAvailable() || num_columns > kVectorSweepMaxColumns ||
      rows >= kVectorSweepMaxRows) {
    return false;
  }
  const uint64_t sidecar_words = (uint64_t{num_columns} + 63) / 64;
  return total_ones >= rows * sidecar_words;
}

size_t ImpVectorSweep(ColumnId* cand, uint32_t* miss, size_t n,
                      const uint8_t* row_mask, uint32_t budget) {
#ifdef DMC_KERNELS_X86
  if (SimdKernelAvailable()) {
    return ImpSweepAvx2(cand, miss, n, row_mask, budget);
  }
#endif
  return ImpSweepPortable(cand, miss, n, row_mask, budget, 0, 0);
}

size_t SimVectorSweep(ColumnId* cand, uint32_t* slack, size_t n,
                      const uint8_t* row_mask, const SimSweepParams& p) {
#ifdef DMC_KERNELS_X86
  if (SimdKernelAvailable()) return SimSweepAvx2(cand, slack, n, row_mask, p);
#endif
  return SimSweepPortable(cand, slack, n, row_mask, p, 0, 0);
}

}  // namespace kernels

}  // namespace dmc
