// Differential battery for the hybrid posting container: every operation
// is checked against a sorted std::vector<uint32_t> oracle, across random
// densities that force all three chunk formats (array / bitmap / run),
// chunk-boundary ids, and empty/full chunks.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "postings/posting_container.h"
#include "util/random.h"

namespace dmc {
namespace {

using Ids = std::vector<uint32_t>;

Ids OracleIntersect(const Ids& a, const Ids& b) {
  Ids out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

// Random sorted set over [0, universe) with per-region behavior chosen to
// exercise all formats: sparse scatter (arrays), dense scatter (bitmaps),
// and long contiguous stretches (runs).
Ids RandomSet(Rng& rng, uint32_t universe) {
  Ids out;
  uint32_t id = 0;
  while (id < universe) {
    const uint64_t mode = rng.Uniform(3);
    const uint32_t region = static_cast<uint32_t>(
        std::min<uint64_t>(universe - id, 1000 + rng.Uniform(40000)));
    if (mode == 0) {  // sparse
      for (uint32_t v = id; v < id + region; ++v) {
        if (rng.Bernoulli(0.01)) out.push_back(v);
      }
    } else if (mode == 1) {  // dense scatter
      for (uint32_t v = id; v < id + region; ++v) {
        if (rng.Bernoulli(0.5)) out.push_back(v);
      }
    } else {  // runs: alternate solid/empty stretches
      uint32_t v = id;
      while (v < id + region) {
        const uint32_t len = static_cast<uint32_t>(1 + rng.Uniform(500));
        const bool solid = rng.Bernoulli(0.5);
        for (uint32_t w = v; w < std::min(id + region, v + len); ++w) {
          if (solid) out.push_back(w);
        }
        v += len;
      }
    }
    id += region;
  }
  return out;
}

TEST(PostingContainerTest, EmptyContainer) {
  PostingContainer p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.cardinality(), 0u);
  EXPECT_TRUE(p.ToVector().empty());
  PostingContainer q;
  EXPECT_EQ(p.IntersectCount(q), 0u);
  EXPECT_EQ(p.SuffixIntersectCount(0, q, 0), 0u);
  EXPECT_TRUE(p == q);
}

TEST(PostingContainerTest, RoundTripAcrossChunkBoundaries) {
  const Ids ids = {0,      1,      65534,  65535,  65536,
                   65537,  131071, 131072, 262144, 4000000};
  const PostingContainer p = PostingContainer::FromSorted(ids);
  EXPECT_EQ(p.ToVector(), ids);
  EXPECT_EQ(p.cardinality(), ids.size());
  for (size_t k = 0; k < ids.size(); ++k) EXPECT_EQ(p.Select(k), ids[k]);
}

TEST(PostingContainerTest, FullChunkBecomesRun) {
  Ids ids(PostingContainer::kChunkSpan);
  for (uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
  const PostingContainer p = PostingContainer::FromSorted(ids);
  EXPECT_EQ(p.cardinality(), PostingContainer::kChunkSpan);
  const auto fc = p.ChunkFormats();
  EXPECT_EQ(fc.run, 1u);
  EXPECT_EQ(fc.array + fc.bitmap, 0u);
  EXPECT_EQ(p.ToVector(), ids);
}

TEST(PostingContainerTest, FormatSelectionMatchesDensity) {
  Rng rng(7);
  // Sparse chunk -> array.
  Ids sparse;
  for (uint32_t v = 0; v < 65536; v += 97) sparse.push_back(v);
  EXPECT_EQ(PostingContainer::FromSorted(sparse).ChunkFormats().array, 1u);
  // Dense scatter chunk -> bitmap (adjacent pairs break runs).
  Ids dense;
  for (uint32_t v = 0; v < 65536; ++v) {
    if (rng.Bernoulli(0.5)) dense.push_back(v);
  }
  EXPECT_EQ(PostingContainer::FromSorted(dense).ChunkFormats().bitmap, 1u);
  // A few solid blocks -> run.
  Ids runs;
  for (uint32_t v = 10000; v < 30000; ++v) runs.push_back(v);
  for (uint32_t v = 40000; v < 60000; ++v) runs.push_back(v);
  EXPECT_EQ(PostingContainer::FromSorted(runs).ChunkFormats().run, 1u);
}

TEST(PostingContainerTest, AppendAfterSealExtendsRuns) {
  Ids block;
  for (uint32_t v = 0; v < 20000; ++v) block.push_back(v);
  PostingContainer p = PostingContainer::FromSorted(block);
  ASSERT_EQ(p.ChunkFormats().run, 1u);
  // Adjacent append extends the final run; a gap starts a new one.
  p.Append(20000);
  p.Append(30000);
  p.Append(70000);  // new chunk; previous chunk reseals
  Ids want = block;
  want.push_back(20000);
  want.push_back(30000);
  want.push_back(70000);
  EXPECT_EQ(p.ToVector(), want);
}

TEST(PostingContainerTest, EqualityAndHashAreFormatIndependent) {
  Ids ids;
  for (uint32_t v = 100; v < 5000; ++v) ids.push_back(v);
  // Sealed (run format) vs append-only (array upgraded to bitmap mid-way
  // but never sealed) must compare and hash equal.
  const PostingContainer sealed = PostingContainer::FromSorted(ids);
  PostingContainer grown;
  for (const uint32_t id : ids) grown.Append(id);
  EXPECT_TRUE(sealed == grown);
  EXPECT_EQ(sealed.Hash(), grown.Hash());
  grown.Append(5000);
  EXPECT_TRUE(sealed != grown);
}

TEST(PostingContainerTest, FuzzAgainstVectorOracle) {
  Rng rng(42);
  for (int iter = 0; iter < 30; ++iter) {
    const uint32_t universe =
        static_cast<uint32_t>(20000 + rng.Uniform(250000));
    const Ids a = RandomSet(rng, universe);
    const Ids b = RandomSet(rng, universe);
    const PostingContainer pa = PostingContainer::FromSorted(a);
    const PostingContainer pb = PostingContainer::FromSorted(b);

    ASSERT_EQ(pa.ToVector(), a) << "iter=" << iter;
    ASSERT_EQ(pb.ToVector(), b) << "iter=" << iter;

    const Ids want_and = OracleIntersect(a, b);
    ASSERT_EQ(pa.IntersectCount(pb), want_and.size()) << "iter=" << iter;
    ASSERT_EQ(pb.IntersectCount(pa), want_and.size()) << "iter=" << iter;
    ASSERT_EQ(pa.AndNotCount(pb), a.size() - want_and.size())
        << "iter=" << iter;
    ASSERT_EQ(pa.Intersect(pb).ToVector(), want_and) << "iter=" << iter;
    if (!a.empty()) {
      const uint64_t k = rng.Uniform(a.size());
      ASSERT_EQ(pa.Select(k), a[k]) << "iter=" << iter;
    }

    // Suffix intersections at random index boundaries (the incremental
    // miner's access pattern), including out-of-range skips.
    for (int probe = 0; probe < 20; ++probe) {
      const uint64_t sa = rng.Uniform(a.size() + 2);
      const uint64_t sb = rng.Uniform(b.size() + 2);
      Ids suf_a(a.begin() + std::min<size_t>(sa, a.size()), a.end());
      Ids suf_b(b.begin() + std::min<size_t>(sb, b.size()), b.end());
      ASSERT_EQ(pa.SuffixIntersectCount(sa, pb, sb),
                OracleIntersect(suf_a, suf_b).size())
          << "iter=" << iter << " sa=" << sa << " sb=" << sb;
    }
  }
}

TEST(PostingContainerTest, FuzzEqualityAndConversionStability) {
  Rng rng(99);
  for (int iter = 0; iter < 20; ++iter) {
    const Ids a = RandomSet(rng, 150000);
    PostingContainer grown;
    for (const uint32_t id : a) grown.Append(id);
    PostingContainer sealed = grown;
    sealed.Optimize();
    sealed.Optimize();  // idempotent
    ASSERT_EQ(sealed.ToVector(), a);
    ASSERT_TRUE(sealed == grown);
    ASSERT_EQ(sealed.Hash(), grown.Hash());
    ASSERT_EQ(sealed.cardinality(), a.size());
  }
}

// The eviction primitives (Rank / IntersectCountBelow /
// EvictBelowAndShift) against the vector oracle, with bounds placed on
// chunk boundaries and mid-chunk, plus 0 and past-the-end.
TEST(PostingContainerTest, FuzzEvictionPrimitivesAgainstOracle) {
  Rng rng(1234);
  for (int iter = 0; iter < 20; ++iter) {
    const uint32_t universe =
        static_cast<uint32_t>(20000 + rng.Uniform(250000));
    const Ids a = RandomSet(rng, universe);
    const Ids b = RandomSet(rng, universe);
    const PostingContainer pa = PostingContainer::FromSorted(a);
    const PostingContainer pb = PostingContainer::FromSorted(b);

    std::vector<uint32_t> bounds = {0, 1, 65535, 65536, 65537,
                                    universe, universe + 10};
    for (int probe = 0; probe < 12; ++probe) {
      bounds.push_back(static_cast<uint32_t>(rng.Uniform(universe + 1)));
    }
    for (const uint32_t bound : bounds) {
      const size_t below = static_cast<size_t>(
          std::lower_bound(a.begin(), a.end(), bound) - a.begin());
      ASSERT_EQ(pa.Rank(bound), below) << "iter=" << iter
                                       << " bound=" << bound;
      // IntersectCountBelow(hi, b) counts this ∩ b over ids < hi.
      Ids pre_a(a.begin(), a.begin() + below);
      Ids pre_b(b.begin(), std::lower_bound(b.begin(), b.end(), bound));
      ASSERT_EQ(pa.IntersectCountBelow(bound, pb),
                OracleIntersect(pre_a, pre_b).size())
          << "iter=" << iter << " bound=" << bound;

      PostingContainer evicted = pa;
      evicted.EvictBelowAndShift(bound);
      Ids want;
      for (size_t k = below; k < a.size(); ++k) want.push_back(a[k] - bound);
      ASSERT_EQ(evicted.ToVector(), want) << "iter=" << iter
                                          << " bound=" << bound;
      ASSERT_EQ(evicted.cardinality(), want.size());
      // Memory accounting must match a fresh append of the shifted ids —
      // the windowed miner's byte-parity invariant rests on this.
      PostingContainer fresh;
      for (const uint32_t id : want) fresh.Append(id);
      ASSERT_TRUE(evicted == fresh);
      ASSERT_EQ(evicted.MemoryBytes(), fresh.MemoryBytes())
          << "iter=" << iter << " bound=" << bound;
    }
  }
}

TEST(PostingContainerTest, EvictionPrimitiveEdgeCases) {
  PostingContainer empty;
  EXPECT_EQ(empty.Rank(0), 0u);
  EXPECT_EQ(empty.Rank(1 << 20), 0u);
  EXPECT_EQ(empty.IntersectCountBelow(1 << 20, empty), 0u);
  empty.EvictBelowAndShift(12345);
  EXPECT_TRUE(empty.empty());

  // Evicting everything leaves a container byte-equal to a fresh one.
  const Ids three = {5, 10, 70000};
  PostingContainer p = PostingContainer::FromSorted(three);
  p.EvictBelowAndShift(70001);
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.MemoryBytes(), PostingContainer().MemoryBytes());

  // Evicting nothing (bound 0) is an identity on contents.
  PostingContainer q = PostingContainer::FromSorted(three);
  q.EvictBelowAndShift(0);
  EXPECT_EQ(q.ToVector(), three);
}

TEST(PostingContainerTest, LogicalBytesFollowsCostModel) {
  // BitmapCostBytes is the dense bound used by the counter table.
  EXPECT_EQ(PostingContainer::BitmapCostBytes(64),
            PostingContainer::kChunkHeaderBytes + 8u);
  EXPECT_EQ(PostingContainer::BitmapCostBytes(65536),
            PostingContainer::kChunkHeaderBytes + 8192u);
}

}  // namespace
}  // namespace dmc
