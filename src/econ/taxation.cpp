#include "econ/taxation.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace creditflow::econ {

TaxationEngine::TaxationEngine(TaxPolicy policy, std::size_t max_peers)
    : policy_(policy), fractional_debt_(policy.enabled ? max_peers : 0, 0.0) {
  CF_EXPECTS(policy.rate >= 0.0 && policy.rate < 1.0);
  CF_EXPECTS(policy.threshold >= 0.0);
}

std::uint64_t TaxationEngine::on_income(std::uint32_t peer,
                                        std::uint64_t income,
                                        std::uint64_t wealth_after_income) {
  if (!policy_.enabled || policy_.rate == 0.0 || income == 0) return 0;
  if (static_cast<double>(wealth_after_income) <= policy_.threshold) return 0;

  CF_EXPECTS(peer < fractional_debt_.size());
  double& debt = fractional_debt_[peer];
  debt += policy_.rate * static_cast<double>(income);
  // The epsilon keeps accumulated binary-rounding error (e.g. ten 0.1
  // liabilities summing to 0.9999…) from deferring a whole due credit.
  auto due = static_cast<std::uint64_t>(std::floor(debt + 1e-9));
  if (due == 0) return 0;
  // Never collect more than the peer can pay right now.
  if (due > wealth_after_income) due = wealth_after_income;
  debt -= static_cast<double>(due);
  collected_ += due;
  return due;
}

bool TaxationEngine::try_redistribute(std::uint64_t population_size) {
  CF_EXPECTS(population_size > 0);
  if (!policy_.enabled) return false;
  if (treasury() < population_size) return false;
  redistributed_ += population_size;
  return true;
}

void TaxationEngine::forget_peer(std::uint32_t peer) {
  if (peer < fractional_debt_.size()) fractional_debt_[peer] = 0.0;
}

}  // namespace creditflow::econ
