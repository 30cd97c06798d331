#include "queueing/open_network.hpp"

#include <cmath>

#include "util/assert.hpp"
#include "util/math.hpp"

namespace creditflow::queueing {

OpenNetwork::OpenNetwork(TransferMatrix routing,
                         std::vector<double> external_arrivals,
                         std::vector<double> service_rates)
    : p_(std::move(routing)),
      gamma_(std::move(external_arrivals)),
      mu_(std::move(service_rates)) {
  const std::size_t n = p_.size();
  CF_EXPECTS(n > 0);
  CF_EXPECTS(gamma_.size() == n && mu_.size() == n);
  CF_EXPECTS_MSG(p_.is_substochastic(1e-9),
                 "open network routing rows must not exceed 1");
  double total_gamma = 0.0;
  for (double g : gamma_) {
    CF_EXPECTS(g >= 0.0);
    total_gamma += g;
  }
  CF_EXPECTS_MSG(total_gamma > 0.0, "no external arrivals");
  for (double m : mu_) CF_EXPECTS_MSG(m > 0.0, "service rates must be > 0");

  // Traffic equations: λ (I - P) = γ  ⇔  (I - P)^T λ^T = γ^T.
  util::Matrix a(n, n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    a.at(r, r) = 1.0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& e : p_.row(i)) {
      a.at(e.to, i) -= e.probability;  // transpose of (I - P)
    }
  }
  sol_.lambda = util::solve_linear(std::move(a), gamma_);
  sol_.rho.resize(n);
  sol_.stable = true;
  for (std::size_t i = 0; i < n; ++i) {
    // Tiny negative noise from the solve is clamped.
    if (sol_.lambda[i] < 0.0) sol_.lambda[i] = 0.0;
    sol_.rho[i] = sol_.lambda[i] / mu_[i];
    if (sol_.rho[i] >= 1.0) sol_.stable = false;
  }
}

double OpenNetwork::expected_wealth(std::size_t i) const {
  CF_EXPECTS(i < gamma_.size());
  const double rho = sol_.rho[i];
  CF_EXPECTS_MSG(rho < 1.0, "queue is unstable; expected wealth diverges");
  return rho / (1.0 - rho);
}

double OpenNetwork::empty_probability(std::size_t i) const {
  CF_EXPECTS(i < gamma_.size());
  const double rho = sol_.rho[i];
  CF_EXPECTS_MSG(rho < 1.0, "queue is unstable");
  return 1.0 - rho;
}

}  // namespace creditflow::queueing
