#include "core/report.hpp"

#include <sstream>

#include "util/assert.hpp"

namespace creditflow::core {

std::uint64_t MarketReport::counter(const std::string& name) const {
  const auto it = counters.find(name);
  CF_EXPECTS_MSG(it != counters.end(), "no registry counter named " + name);
  return it->second;
}

double MarketReport::converged_gini() const {
  if (gini_balances.empty()) return 0.0;
  return gini_balances.tail_mean(0.25);
}

std::string MarketReport::summary() const {
  std::ostringstream oss;
  oss << "rounds=" << rounds << " tx=" << counter("market.transactions")
      << " volume=" << counter("market.volume")
      << " gini=" << converged_gini()
      << " bankrupt=" << final_wealth.bankrupt_fraction
      << " top10=" << final_wealth.top10_share
      << (ledger_conserved ? "" : " [LEDGER VIOLATION]");
  return oss.str();
}

}  // namespace creditflow::core
