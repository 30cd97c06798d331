#include "p2p/spending.hpp"

#include "util/assert.hpp"

namespace creditflow::p2p {

double round_budget(const SpendingParams& params, double base_rate,
                    std::uint64_t balance, double round_seconds) {
  CF_EXPECTS(base_rate >= 0.0 && round_seconds > 0.0);
  const auto b = static_cast<double>(balance);
  const double rate = params.dynamic && b > params.dynamic_threshold
                          ? base_rate * b / params.dynamic_threshold
                          : base_rate;
  return rate * round_seconds;
}

}  // namespace creditflow::p2p
