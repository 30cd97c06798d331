#include "econ/lorenz.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace creditflow::econ {

double LorenzCurve::share_at(double x) const {
  CF_EXPECTS(x >= 0.0 && x <= 1.0);
  CF_EXPECTS(!population_share.empty());
  if (x <= population_share.front()) {
    // Interpolate from the implicit origin (0,0).
    const double x0 = population_share.front();
    return x0 > 0.0 ? wealth_share.front() * (x / x0) : wealth_share.front();
  }
  const auto it = std::lower_bound(population_share.begin(),
                                   population_share.end(), x);
  const auto hi = static_cast<std::size_t>(it - population_share.begin());
  if (hi >= population_share.size()) return wealth_share.back();
  if (population_share[hi] == x) return wealth_share[hi];
  const std::size_t lo = hi - 1;
  const double x0 = population_share[lo];
  const double x1 = population_share[hi];
  const double y0 = wealth_share[lo];
  const double y1 = wealth_share[hi];
  return y0 + (y1 - y0) * (x - x0) / (x1 - x0);
}

LorenzCurve lorenz_from_pmf(std::span<const double> pmf) {
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

  LorenzCurve curve;
  curve.population_share.reserve(pmf.size() + 1);
  curve.wealth_share.reserve(pmf.size() + 1);
  curve.population_share.push_back(0.0);
  curve.wealth_share.push_back(0.0);
  double cum_pop = 0.0;
  double cum_wealth = 0.0;
  for (std::size_t b = 0; b < pmf.size(); ++b) {
    if (pmf[b] == 0.0) continue;
    cum_pop += pmf[b] / mass;
    cum_wealth += static_cast<double>(b) * pmf[b] / mean;
    curve.population_share.push_back(std::min(cum_pop, 1.0));
    curve.wealth_share.push_back(std::min(cum_wealth, 1.0));
  }
  curve.population_share.back() = 1.0;
  curve.wealth_share.back() = 1.0;
  return curve;
}

double gini_from_lorenz(const LorenzCurve& curve) {
  CF_EXPECTS(curve.size() >= 2);
  // Gini = 1 - 2 * area under the Lorenz curve (trapezoidal rule).
  double area = 0.0;
  for (std::size_t k = 1; k < curve.size(); ++k) {
    const double dx =
        curve.population_share[k] - curve.population_share[k - 1];
    area += 0.5 * dx * (curve.wealth_share[k] + curve.wealth_share[k - 1]);
  }
  return std::clamp(1.0 - 2.0 * area, 0.0, 1.0);
}

}  // namespace creditflow::econ
