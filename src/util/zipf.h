// Zipf / power-law samplers.
//
// All four of the paper's data sets are heavy-tailed in column density
// (Fig. 4); the synthetic generators reproduce that with Zipf-distributed
// popularity and discrete power-law degree distributions.

#ifndef DMC_UTIL_ZIPF_H_
#define DMC_UTIL_ZIPF_H_

#include <cstdint>
#include <vector>

#include "util/random.h"

namespace dmc {

/// Samples ranks in [0, n) with probability proportional to
/// 1 / (rank+1)^theta. Uses an exact inverse-CDF table (built once; O(n)
/// memory, O(log n) per sample), which is fine at the library's scales and
/// keeps sampling deterministic across platforms.
class ZipfSampler {
 public:
  /// `n` must be >= 1; `theta` >= 0 (0 = uniform).
  ZipfSampler(uint64_t n, double theta);

  /// Returns a rank in [0, n); rank 0 is the most popular.
  uint64_t Sample(Rng& rng) const;

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  uint64_t n_;
  double theta_;
  std::vector<double> cdf_;  // cdf_[i] = P(rank <= i)
};

/// Samples a discrete power-law value k in [k_min, k_max] with
/// P(k) ~ k^-alpha. Used for degree / row-density distributions.
class PowerLawSampler {
 public:
  PowerLawSampler(uint64_t k_min, uint64_t k_max, double alpha);

  uint64_t Sample(Rng& rng) const;

  uint64_t k_min() const { return k_min_; }
  uint64_t k_max() const { return k_max_; }

 private:
  uint64_t k_min_;
  uint64_t k_max_;
  std::vector<double> cdf_;  // over k_min..k_max inclusive
};

}  // namespace dmc

#endif  // DMC_UTIL_ZIPF_H_
