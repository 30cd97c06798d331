// Protocol mode coverage: windowed rate measurement, churn population law
// (with the mortal bootstrap cohort), seller-choice modes, and the
// injection policy interplay with churn and tax.
#include <gtest/gtest.h>

#include <numeric>

#include "p2p/protocol.hpp"
#include "sim/simulator.hpp"

namespace creditflow::p2p {
namespace {

ProtocolConfig base() {
  ProtocolConfig cfg;
  cfg.initial_peers = 80;
  cfg.max_peers = 80;
  cfg.initial_credits = 50;
  cfg.seed = 7;
  return cfg;
}

TEST(WindowedRates, MatchLedgerDeltas) {
  sim::Simulator sim;
  StreamingProtocol proto(base(), sim);
  proto.start();
  sim.run_until(100.0);

  std::vector<std::uint64_t> spent_before(80);
  for (PeerId id = 0; id < 80; ++id) {
    spent_before[id] = proto.peer_table().credits_spent(id);
  }
  proto.begin_rate_window();
  sim.run_until(150.0);

  const auto rates = proto.windowed_spend_rates();
  const auto alive = proto.alive_peers();
  ASSERT_EQ(rates.size(), alive.size());
  for (std::size_t k = 0; k < alive.size(); ++k) {
    const double expected =
        static_cast<double>(proto.peer_table().credits_spent(alive[k]) -
                            spent_before[alive[k]]) /
        50.0;
    EXPECT_NEAR(rates[k], expected, 1e-12);
  }
}

TEST(WindowedRates, RequiresOpenWindow) {
  sim::Simulator sim;
  StreamingProtocol proto(base(), sim);
  proto.start();
  sim.run_until(10.0);
  EXPECT_THROW((void)proto.windowed_spend_rates(), util::PreconditionError);
  proto.begin_rate_window();
  EXPECT_THROW((void)proto.windowed_spend_rates(), util::PreconditionError);
  sim.run_until(11.0);
  EXPECT_NO_THROW((void)proto.windowed_spend_rates());
}

TEST(ChurnPopulation, SettlesAtArrivalRateTimesLifespan) {
  sim::Simulator sim;
  auto cfg = base();
  cfg.initial_peers = 100;
  cfg.max_peers = 300;
  cfg.churn.enabled = true;
  cfg.churn.arrival_rate = 1.0;
  cfg.churn.mean_lifespan = 100.0;  // expected population = 100
  StreamingProtocol proto(cfg, sim);
  proto.start();

  // After several lifespans the population fluctuates around 100 — the
  // bootstrap cohort must be mortal for this to hold.
  sim.run_until(600.0);
  double alive_sum = 0.0;
  for (int probe = 0; probe < 20; ++probe) {
    sim.run_until(600.0 + 10.0 * probe);
    alive_sum += static_cast<double>(proto.num_alive());
  }
  EXPECT_NEAR(alive_sum / 20.0, 100.0, 25.0);
  EXPECT_EQ(proto.metrics().counter("churn.arrivals_dropped"), 0u);
}

TEST(SellerChoice, AllModesTradeAndConserve) {
  using Choice = ProtocolConfig::SellerChoice;
  for (const auto choice : {Choice::kAvailabilityUniform,
                            Choice::kFillWeighted, Choice::kCheapestAsk}) {
    sim::Simulator sim;
    auto cfg = base();
    cfg.seller_choice = choice;
    StreamingProtocol proto(cfg, sim);
    proto.start();
    sim.run_until(120.0);
    EXPECT_GT(proto.metrics().counter("market.transactions"), 500u);
    EXPECT_TRUE(proto.ledger().audit());
  }
}

TEST(SellerChoice, AuctionNeverPaysAboveUniformPriceForSamePair) {
  // With uniform pricing all asks are equal, so the auction degenerates to
  // picking the first owner — behaviour must stay healthy.
  sim::Simulator sim;
  auto cfg = base();
  cfg.seller_choice = ProtocolConfig::SellerChoice::kCheapestAsk;
  StreamingProtocol proto(cfg, sim);
  proto.start();
  sim.run_until(200.0);
  EXPECT_GT(proto.mean_buffer_fill(), 0.6);
}

TEST(Injection, WorksTogetherWithChurnAndTax) {
  sim::Simulator sim;
  auto cfg = base();
  cfg.max_peers = 200;
  cfg.churn.enabled = true;
  cfg.churn.arrival_rate = 0.5;
  cfg.churn.mean_lifespan = 80.0;
  cfg.tax.enabled = true;
  cfg.tax.rate = 0.1;
  cfg.tax.threshold = 40.0;
  cfg.injection.enabled = true;
  cfg.injection.interval_seconds = 25.0;
  cfg.injection.credits_per_peer = 1;
  StreamingProtocol proto(cfg, sim);
  proto.start();
  sim.run_until(400.0);
  EXPECT_TRUE(proto.ledger().audit());
  EXPECT_GT(proto.metrics().counter("injection.minted"), 0u);
  EXPECT_GT(proto.metrics().counter("churn.departures"), 0u);
}

TEST(DepartTimes, TrackedForChurningPeers) {
  sim::Simulator sim;
  auto cfg = base();
  cfg.max_peers = 160;
  cfg.churn.enabled = true;
  cfg.churn.arrival_rate = 0.5;
  cfg.churn.mean_lifespan = 50.0;
  StreamingProtocol proto(cfg, sim);
  proto.start();
  sim.run_until(100.0);
  for (PeerId id : proto.alive_peers()) {
    EXPECT_GT(proto.peer_table().depart_time(id), sim.now());
  }
}

}  // namespace
}  // namespace creditflow::p2p
