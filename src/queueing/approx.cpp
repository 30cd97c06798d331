#include "queueing/approx.hpp"

#include <cmath>

#include "util/assert.hpp"
#include "util/math.hpp"

namespace creditflow::queueing {

std::vector<double> approx_marginal_eq8(std::size_t num_peers,
                                        std::uint64_t total_credits) {
  CF_EXPECTS(num_peers >= 2);
  std::vector<double> pmf(total_credits + 1, 0.0);
  const double p = 1.0 / static_cast<double>(num_peers);
  for (std::uint64_t b = 0; b <= total_credits; ++b) {
    pmf[b] = std::exp(util::log_binomial_pmf(total_credits, b, p));
  }
  return pmf;
}

double efficiency_eq9(double average_wealth) {
  CF_EXPECTS(average_wealth >= 0.0);
  return 1.0 - std::exp(-average_wealth);
}

double efficiency_finite(std::size_t num_peers, std::uint64_t total_credits) {
  CF_EXPECTS(num_peers >= 2);
  const double log_q0 =
      static_cast<double>(total_credits) *
      std::log1p(-1.0 / static_cast<double>(num_peers));
  return 1.0 - std::exp(log_q0);
}

}  // namespace creditflow::queueing
