#include "util/bitvector.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace dmc {
namespace {

TEST(BitVectorTest, StartsCleared) {
  BitVector bv(100);
  EXPECT_EQ(bv.size(), 100u);
  // Against an empty vector, AndNotCount is the popcount.
  EXPECT_EQ(bv.AndNotCount(BitVector(100)), 0u);
}

TEST(BitVectorTest, AndNotCountIsMissKernel) {
  BitVector a(10), b(10);
  a.Set(1);
  a.Set(3);
  a.Set(5);
  b.Set(3);
  b.Set(7);
  // a=1 where b=0: positions 1 and 5.
  EXPECT_EQ(a.AndNotCount(b), 2u);
  // b=1 where a=0: position 7.
  EXPECT_EQ(b.AndNotCount(a), 1u);
}

TEST(BitVectorTest, AndNotCountAgainstEmpty) {
  BitVector a(70), empty(70);
  a.Set(0);
  a.Set(69);
  EXPECT_EQ(a.AndNotCount(empty), 2u);
  EXPECT_EQ(empty.AndNotCount(a), 0u);
}

TEST(BitVectorTest, RandomizedCountMatchesReference) {
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 1 + rng.Uniform(500);
    BitVector a(n), b(n);
    size_t count_andnot = 0;
    std::vector<bool> ra(n, false), rb(n, false);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.3)) {
        a.Set(i);
        ra[i] = true;
      }
      if (rng.Bernoulli(0.3)) {
        b.Set(i);
        rb[i] = true;
      }
    }
    for (size_t i = 0; i < n; ++i) count_andnot += ra[i] && !rb[i];
    EXPECT_EQ(a.AndNotCount(b), count_andnot);
  }
}

TEST(BitVectorTest, MemoryBytes) {
  BitVector a(1);
  EXPECT_EQ(a.MemoryBytes(), 8u);
  BitVector b(64);
  EXPECT_EQ(b.MemoryBytes(), 8u);
  BitVector c(65);
  EXPECT_EQ(c.MemoryBytes(), 16u);
}

}  // namespace
}  // namespace dmc
