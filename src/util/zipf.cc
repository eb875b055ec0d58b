#include "util/zipf.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace dmc {

ZipfSampler::ZipfSampler(uint64_t n, double theta) : n_(n), theta_(theta) {
  DMC_CHECK_GE(n, 1u);
  DMC_CHECK_GE(theta, 0.0);
  cdf_.resize(n);
  double total = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = total;
  }
  for (auto& v : cdf_) v /= total;
  cdf_.back() = 1.0;  // guard against rounding
}

uint64_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.UniformDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<uint64_t>(it - cdf_.begin());
}

PowerLawSampler::PowerLawSampler(uint64_t k_min, uint64_t k_max, double alpha)
    : k_min_(k_min), k_max_(k_max) {
  DMC_CHECK_GE(k_min, 1u);
  DMC_CHECK_LE(k_min, k_max);
  cdf_.resize(k_max - k_min + 1);
  double total = 0.0;
  for (uint64_t k = k_min; k <= k_max; ++k) {
    total += std::pow(static_cast<double>(k), -alpha);
    cdf_[k - k_min] = total;
  }
  for (auto& v : cdf_) v /= total;
  cdf_.back() = 1.0;
}

uint64_t PowerLawSampler::Sample(Rng& rng) const {
  const double u = rng.UniformDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return k_min_ + static_cast<uint64_t>(it - cdf_.begin());
}

}  // namespace dmc
