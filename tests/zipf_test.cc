#include "util/zipf.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/random.h"

namespace dmc {
namespace {

// Relative sample frequencies of ranks [0, n).
std::vector<double> Frequencies(const ZipfSampler& z, uint64_t seed,
                                int samples) {
  Rng rng(seed);
  std::vector<double> freq(z.n(), 0.0);
  for (int i = 0; i < samples; ++i) freq[z.Sample(rng)] += 1.0 / samples;
  return freq;
}

TEST(ZipfTest, ThetaZeroIsUniform) {
  const ZipfSampler z(10, 0.0);
  for (const double f : Frequencies(z, 29, 100000)) EXPECT_NEAR(f, 0.1, 0.01);
}

TEST(ZipfTest, RankZeroMostPopular) {
  const ZipfSampler z(50, 1.0);
  const std::vector<double> freq = Frequencies(z, 37, 100000);
  for (uint64_t r = 1; r < 50; ++r) EXPECT_GT(freq[0], freq[r]);
}

TEST(ZipfTest, EmpiricalMatchesPmf) {
  const ZipfSampler z(20, 1.0);
  // P(rank r) = (1 / (r+1)) / H_20 at theta = 1.
  double harmonic = 0.0;
  for (uint64_t r = 0; r < 20; ++r) harmonic += 1.0 / double(r + 1);
  const std::vector<double> freq = Frequencies(z, 31, 200000);
  for (uint64_t r = 0; r < 20; ++r) {
    const double pmf = 1.0 / double(r + 1) / harmonic;
    EXPECT_NEAR(freq[r], pmf, 0.1 * pmf + 0.002);
  }
}

TEST(ZipfTest, SingleElement) {
  ZipfSampler z(1, 2.0);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(z.Sample(rng), 0u);
}

TEST(PowerLawTest, StaysInRange) {
  PowerLawSampler p(2, 64, 2.0);
  Rng rng(41);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t k = p.Sample(rng);
    EXPECT_GE(k, 2u);
    EXPECT_LE(k, 64u);
  }
}

TEST(PowerLawTest, HeavyTailShape) {
  PowerLawSampler p(1, 1000, 2.0);
  Rng rng(43);
  constexpr int kSamples = 100000;
  int small = 0, large = 0;
  for (int i = 0; i < kSamples; ++i) {
    const uint64_t k = p.Sample(rng);
    small += k <= 2;
    large += k >= 100;
  }
  // For alpha=2 most mass is at tiny values, but the tail is non-empty.
  EXPECT_GT(small, kSamples / 2);
  EXPECT_GT(large, 0);
  EXPECT_LT(large, kSamples / 20);
}

TEST(PowerLawTest, DegenerateRange) {
  PowerLawSampler p(5, 5, 1.5);
  Rng rng(47);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(p.Sample(rng), 5u);
}

}  // namespace
}  // namespace dmc
