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
  // Under churn a slot can be activated again inside the window; its spend
  // counter restarted then, so all of it falls in the window.
  ProtocolConfig churned = base();
  churned.max_peers = 300;
  churned.churn.enabled = true;
  churned.churn.arrival_rate = 1.0;
  churned.churn.mean_lifespan = 100.0;
  for (const ProtocolConfig& cfg : {base(), churned}) {
    sim::Simulator sim;
    StreamingProtocol proto(cfg, sim);
    proto.start();
    sim.run_until(100.0);

    const PeerTable& peers = proto.peer_table();
    std::vector<std::uint64_t> spent_before(cfg.max_peers);
    std::vector<std::uint32_t> activations_before(cfg.max_peers);
    for (PeerId id = 0; id < cfg.max_peers; ++id) {
      spent_before[id] = peers.credits_spent(id);
      activations_before[id] = peers.activations(id);
    }
    proto.begin_rate_window();
    sim.run_until(150.0);

    const auto rates = proto.windowed_spend_rates();
    const auto alive = proto.alive_peers();
    ASSERT_EQ(rates.size(), alive.size());
    for (std::size_t k = 0; k < alive.size(); ++k) {
      const PeerId id = alive[k];
      const std::uint64_t before =
          peers.activations(id) == activations_before[id] ? spent_before[id]
                                                          : 0;
      const double expected =
          static_cast<double>(peers.credits_spent(id) - before) / 50.0;
      EXPECT_NEAR(rates[k], expected, 1e-12)
          << "peer " << id << ", max_peers " << cfg.max_peers;
    }
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
  // Without injection the mint holds one endowment per initial peer and
  // per arrival (the default rejoin mint is full); injection adds to it.
  const std::uint64_t endowments =
      (cfg.initial_peers + proto.metrics().counter("churn.arrivals")) *
      cfg.initial_credits;
  EXPECT_GT(proto.ledger().total_minted(), endowments);
  EXPECT_GT(proto.metrics().counter("churn.departures"), 0u);
}

TEST(DepartTimes, TrackedForChurningPeers) {
  // The calendar holds each alive peer's departure; beside them only the
  // next round and the next arrival are pending.
  for (const std::uint64_t seed : {7ull, 8ull, 9ull}) {
    sim::Simulator sim;
    auto cfg = base();
    cfg.max_peers = 160;
    cfg.seed = seed;
    cfg.churn.enabled = true;
    cfg.churn.arrival_rate = 0.5;
    cfg.churn.mean_lifespan = 50.0;
    StreamingProtocol proto(cfg, sim);
    proto.start();
    for (const double t : {100.0, 250.5, 400.0}) {
      sim.run_until(t);
      EXPECT_EQ(sim.pending_events(), proto.num_alive() + 2)
          << "seed " << seed << " at t = " << t;
    }
  }
}

}  // namespace
}  // namespace creditflow::p2p
