// Example: designing a taxation counter-measure (paper Sec. VI-C).
//
// An operator whose swarm shows condensation pressure (heterogeneous upload
// capacity) sweeps income-tax rates and thresholds, looking for the policy
// that flattens the wealth distribution without collapsing trade volume.
#include <iostream>

#include "core/market.hpp"
#include "util/table.hpp"

namespace {

creditflow::core::MarketReport run_with_tax(bool enabled, double rate,
                                            double threshold) {
  using namespace creditflow;
  core::MarketConfig cfg;
  cfg.protocol.initial_peers = 300;
  cfg.protocol.max_peers = 300;
  cfg.protocol.initial_credits = 100;
  cfg.protocol.seed = 11;
  cfg.protocol.heterogeneity.spend_rate_cv = 0.3;
  cfg.protocol.tax.enabled = enabled;
  cfg.protocol.tax.rate = rate;
  cfg.protocol.tax.threshold = threshold;
  cfg.horizon = 6000.0;
  cfg.snapshot_interval = 300.0;
  core::CreditMarket market(cfg);
  return market.run();
}

}  // namespace

int main() {
  using namespace creditflow;
  std::cout << "Sweeping income-tax policies on an asymmetric 300-peer "
               "market (c=100)...\n\n";

  util::ConsoleTable table("tax policy sweep");
  table.set_header({"policy", "gini", "bankrupt", "volume",
                    "collected", "redistributed"});

  const auto baseline = run_with_tax(false, 0.0, 0.0);
  table.add_row({std::string("no tax"), baseline.converged_gini(),
                 baseline.final_wealth.bankrupt_fraction,
                 static_cast<std::int64_t>(baseline.counter("market.volume")),
                 static_cast<std::int64_t>(0), static_cast<std::int64_t>(0)});

  for (const double rate : {0.1, 0.2}) {
    for (const double threshold : {50.0, 80.0, 120.0}) {
      const auto r = run_with_tax(true, rate, threshold);
      table.add_row(
          {"rate " + std::to_string(rate).substr(0, 4) + " thr " +
               std::to_string(static_cast<int>(threshold)),
           r.converged_gini(), r.final_wealth.bankrupt_fraction,
           static_cast<std::int64_t>(r.counter("market.volume")),
           static_cast<std::int64_t>(r.tax_collected),
           static_cast<std::int64_t>(r.tax_redistributed)});
    }
  }
  table.print();

  std::cout << "\nAs in the paper: taxation curbs the Gini drift; thresholds "
               "near the average\nwealth let the rate matter, very low "
               "thresholds blunt it.\n";
  return 0;
}
