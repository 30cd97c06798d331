#include "queueing/equilibrium.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/math.hpp"

namespace creditflow::queueing {

EquilibriumResult solve_equilibrium_power(const TransferMatrix& p,
                                          const EquilibriumOptions& opts) {
  const std::size_t n = p.size();
  CF_EXPECTS(n > 0);
  CF_EXPECTS_MSG(p.is_substochastic(1e-6), "transfer matrix rows exceed 1");
  CF_EXPECTS(opts.damping >= 0.0 && opts.damping < 1.0);

  EquilibriumResult result;
  std::vector<double> lambda(n, 1.0 / static_cast<double>(n));
  for (std::size_t it = 1; it <= opts.max_iterations; ++it) {
    auto next = p.left_multiply(lambda);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      next[i] = (1.0 - opts.damping) * next[i] + opts.damping * lambda[i];
      sum += next[i];
    }
    CF_ENSURES_MSG(sum > 0.0, "flow vector collapsed to zero");
    double delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      next[i] /= sum;
      delta += std::abs(next[i] - lambda[i]);
    }
    lambda.swap(next);
    result.iterations = it;
    if (delta < opts.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.residual = equilibrium_residual(p, lambda);
  result.lambda = std::move(lambda);
  return result;
}

EquilibriumResult solve_equilibrium_direct(const TransferMatrix& p) {
  CF_EXPECTS(p.size() > 0);
  CF_EXPECTS_MSG(p.is_stochastic(1e-6),
                 "direct solver requires a closed (stochastic) matrix");
  EquilibriumResult result;
  result.lambda = util::stationary_from_stochastic(p.to_dense());
  result.residual = equilibrium_residual(p, result.lambda);
  result.converged = result.residual < 1e-8;
  return result;
}

EquilibriumResult solve_equilibrium(const TransferMatrix& p,
                                    const EquilibriumOptions& opts) {
  if (p.size() <= 512 && p.is_stochastic(1e-6)) {
    return solve_equilibrium_direct(p);
  }
  return solve_equilibrium_power(p, opts);
}

double equilibrium_residual(const TransferMatrix& p,
                            std::span<const double> lambda) {
  CF_EXPECTS(lambda.size() == p.size());
  const auto mapped = p.left_multiply(lambda);
  double worst = 0.0;
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    worst = std::max(worst, std::abs(mapped[i] - lambda[i]));
  }
  return worst;
}

std::vector<double> normalized_utilization(std::span<const double> lambda,
                                           std::span<const double> mu) {
  CF_EXPECTS(lambda.size() == mu.size());
  CF_EXPECTS(!lambda.empty());
  double max_ratio = 0.0;
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    CF_EXPECTS_MSG(mu[i] > 0.0, "service rate must be positive");
    CF_EXPECTS_MSG(lambda[i] >= 0.0, "arrival rate must be non-negative");
    max_ratio = std::max(max_ratio, lambda[i] / mu[i]);
  }
  CF_EXPECTS_MSG(max_ratio > 0.0, "all arrival rates are zero");
  std::vector<double> u(lambda.size());
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    u[i] = (lambda[i] / mu[i]) / max_ratio;
  }
  return u;
}

}  // namespace creditflow::queueing
