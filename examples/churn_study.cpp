// Example: open-market (churn) study — paper Sec. VI-E.
//
// Peers arrive with fresh credits and leave with whatever they hold, so the
// market is an open Jackson network. The example measures how peer lifespan
// shapes inequality, and cross-checks the model-level intuition with an
// analytic open-network solution.
#include <iostream>

#include "core/market.hpp"
#include "queueing/open_network.hpp"
#include "util/table.hpp"

namespace {

creditflow::core::MarketReport run_churn(double arrival_rate,
                                         double mean_lifespan) {
  using namespace creditflow;
  core::MarketConfig cfg;
  cfg.protocol.initial_peers = static_cast<std::size_t>(
      std::max(100.0, arrival_rate * mean_lifespan));
  cfg.protocol.max_peers = cfg.protocol.initial_peers * 2 + 128;
  cfg.protocol.initial_credits = 100;
  cfg.protocol.seed = 31;
  cfg.protocol.heterogeneity.spend_rate_cv = 0.3;
  cfg.protocol.churn.enabled = true;
  cfg.protocol.churn.arrival_rate = arrival_rate;
  cfg.protocol.churn.mean_lifespan = mean_lifespan;
  cfg.horizon = 5000.0;
  cfg.snapshot_interval = 250.0;
  core::CreditMarket market(cfg);
  return market.run();
}

}  // namespace

int main() {
  using namespace creditflow;
  std::cout << "Peer churn vs credit inequality (open market, c=100)...\n\n";

  util::ConsoleTable table("lifespan sweep at arrival rate 1 peer/s");
  table.set_header({"mean_lifespan_s", "expected_size", "gini",
                    "arrivals", "departures"});
  for (const double lifespan : {250.0, 500.0, 1000.0}) {
    const auto r = run_churn(1.0, lifespan);
    table.add_row({lifespan, lifespan * 1.0, r.converged_gini(),
                   static_cast<std::int64_t>(r.counter("churn.arrivals")),
                   static_cast<std::int64_t>(r.counter("churn.departures"))});
  }
  table.print();
  std::cout << "\nLonger-lived peers accumulate for longer: the Gini grows "
               "with lifespan, yet\nstays below a static overlay's level — "
               "both paper findings.\n\n";

  // Model-level intuition: an open Jackson network where every queue also
  // "leaks" jobs (departing peers). Higher leak (shorter lifespans) lowers
  // every queue's utilization and with it the stationary inequality.
  util::ConsoleTable model("open Jackson model: leak probability sweep");
  model.set_header({"leak_per_hop", "rho", "expected_wealth",
                    "p_bankrupt"});
  for (const double leak : {0.05, 0.1, 0.2, 0.4}) {
    queueing::TransferMatrix p(2);
    // Two symmetric peers trading with each other, leaking `leak` per hop
    // (total traffic λ = γ/leak); external injection fixed at 0.05/s.
    p.set_row(0, {{1, 1.0 - leak}});
    p.set_row(1, {{0, 1.0 - leak}});
    const queueing::OpenNetwork net(p, {0.05, 0.05}, {1.2, 1.2});
    model.add_row({leak, net.solution().rho[0], net.expected_wealth(0),
                   net.empty_probability(0)});
  }
  model.print();
  std::cout << "\nShorter effective residence (larger leak) -> lower load "
               "and a lighter wealth\ntail, mirroring the simulated "
               "lifespan sweep.\n";
  return 0;
}
