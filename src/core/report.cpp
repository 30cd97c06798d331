#include "core/report.hpp"

#include <sstream>

namespace creditflow::core {

double MarketReport::converged_gini() const {
  if (gini_balances.empty()) return 0.0;
  return gini_balances.tail_mean(0.25);
}

std::string MarketReport::summary() const {
  std::ostringstream oss;
  oss << "rounds=" << rounds << " tx=" << transactions
      << " volume=" << volume << " gini=" << converged_gini()
      << " bankrupt=" << final_wealth.bankrupt_fraction
      << " top10=" << final_wealth.top10_share
      << (ledger_conserved ? "" : " [LEDGER VIOLATION]");
  return oss.str();
}

}  // namespace creditflow::core
