#include "econ/gini.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/assert.hpp"

namespace creditflow::econ {

namespace {

/// Shared kernel: sorts `sorted` in place and evaluates the order-statistic
/// formula. Both public flavors funnel here so their results are
/// bit-identical by construction.
double gini_inplace(std::vector<double>& sorted) {
  CF_EXPECTS(!sorted.empty());
  double total = 0.0;
  for (double w : sorted) {
    CF_EXPECTS_MSG(w >= 0.0, "wealth values must be non-negative");
    total += w;
  }
  CF_EXPECTS_MSG(total > 0.0, "total wealth must be positive");
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  double weighted = 0.0;
  for (std::size_t k = 0; k < sorted.size(); ++k) {
    weighted += (2.0 * static_cast<double>(k + 1) - n - 1.0) * sorted[k];
  }
  return std::clamp(weighted / (n * total), 0.0, 1.0);
}

}  // namespace

double gini(std::span<const double> wealth) {
  std::vector<double> sorted(wealth.begin(), wealth.end());
  return gini_inplace(sorted);
}

double gini(std::span<const double> wealth, std::vector<double>& scratch) {
  scratch.assign(wealth.begin(), wealth.end());
  return gini_inplace(scratch);
}

double gini_from_pmf(std::span<const double> pmf) {
  CF_EXPECTS(!pmf.empty());
  double mass = 0.0;
  double mean = 0.0;
  for (std::size_t b = 0; b < pmf.size(); ++b) {
    CF_EXPECTS_MSG(pmf[b] >= 0.0, "PMF entries must be non-negative");
    mass += pmf[b];
    mean += static_cast<double>(b) * pmf[b];
  }
  CF_EXPECTS_MSG(mass > 0.0, "PMF has no mass");
  CF_EXPECTS_MSG(mean > 0.0, "distribution mean must be positive");

  // E|X-Y| = 2 Σ_b F(b)(1-F(b)) over integer support (b = 0..L-1), with F
  // normalized by the total mass.
  double cdf = 0.0;
  double e_abs_diff = 0.0;
  for (std::size_t b = 0; b + 1 < pmf.size(); ++b) {
    cdf += pmf[b] / mass;
    e_abs_diff += 2.0 * cdf * (1.0 - cdf);
  }
  const double normalized_mean = mean / mass;
  return std::clamp(e_abs_diff / (2.0 * normalized_mean), 0.0, 1.0);
}

}  // namespace creditflow::econ
