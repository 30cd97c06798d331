// Example: a live-streaming operator evaluates two credit-market designs.
//
// The scenario the paper's introduction motivates: a mesh streaming swarm
// pays for uploads with virtual credits. Design A is careless — lots of
// initial credits, heterogeneous chunk prices, demand concentrated on the
// chunk-rich; Design B caps upload headroom, prices uniformly, and keeps
// the endowment modest. The example runs both markets and compares
// streaming health (download rates, buffer fill) with economic health
// (Gini, bankruptcies).
#include <iostream>
#include <numeric>

#include "core/market.hpp"
#include "econ/gini.hpp"
#include "util/table.hpp"

namespace {

creditflow::core::MarketReport run_design(bool careless) {
  using namespace creditflow;
  core::MarketConfig cfg;
  cfg.protocol.initial_peers = 400;
  cfg.protocol.max_peers = 400;
  cfg.protocol.seed = 77;
  cfg.horizon = 5000.0;
  cfg.snapshot_interval = 250.0;
  if (careless) {
    cfg.protocol.initial_credits = 200;
    cfg.protocol.upload_capacity = 8.0;
    cfg.protocol.seller_choice =
        p2p::ProtocolConfig::SellerChoice::kFillWeighted;
    cfg.protocol.deficit_seeding = false;
    cfg.protocol.reserve_credits = 0.0;
    cfg.protocol.pricing.kind = econ::PricingKind::kPoisson;
    cfg.protocol.pricing.poisson_mean = 1.0;
  } else {
    cfg.protocol.initial_credits = 40;
  }
  core::CreditMarket market(cfg);
  return market.run();
}

double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

}  // namespace

int main() {
  using namespace creditflow;
  std::cout << "Comparing two credit-market designs for a 400-peer "
               "streaming swarm (5000 s simulated)...\n\n";

  const auto careless = run_design(true);
  const auto careful = run_design(false);

  util::ConsoleTable table("streaming + economic health");
  table.set_header({"metric", "careless_design", "careful_design"});
  table.add_row({std::string("final gini (balances)"),
                 careless.final_wealth.gini, careful.final_wealth.gini});
  table.add_row({std::string("bankrupt fraction"),
                 careless.final_wealth.bankrupt_fraction,
                 careful.final_wealth.bankrupt_fraction});
  table.add_row({std::string("top-10% wealth share"),
                 careless.final_wealth.top10_share,
                 careful.final_wealth.top10_share});
  table.add_row({std::string("mean download rate (chunks/s)"),
                 mean_of(careless.final_download_rates),
                 mean_of(careful.final_download_rates)});
  table.add_row({std::string("mean buffer fill"),
                 careless.mean_buffer_fill.last_value(),
                 careful.mean_buffer_fill.last_value()});
  table.add_row(
      {std::string("transactions"),
       static_cast<std::int64_t>(careless.counter("market.transactions")),
       static_cast<std::int64_t>(careful.counter("market.transactions"))});
  table.print();

  std::cout << "\nThe careless design condenses credits (high Gini, mass "
               "bankruptcy) and its\nstreaming quality decays with the "
               "credit flow — the wealth-condensation threat\nthe paper "
               "analyzes. The careful design sustains both.\n";
  return 0;
}
