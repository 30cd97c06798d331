// Tests for the strategy layer: deterministic population assignment, the
// rejoin-mint loophole the whitewasher exploits (and the churn.rejoin_mint
// policies that close it), free-rider suppression, collusion-loop
// conservation, stake bonding/slashing, and the strategy/churn/order-book
// interaction invariants from the adversarial sweep presets.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "core/market.hpp"
#include "p2p/protocol.hpp"
#include "sim/simulator.hpp"
#include "strategy/strategy.hpp"

namespace creditflow {
namespace {

using strategy::Strategy;
using strategy::StrategyConfig;

TEST(StrategyAssign, PartitionsIdSpaceByConfiguredFractions) {
  StrategyConfig cfg;
  cfg.free_rider_fraction = 0.2;
  cfg.whitewash_fraction = 0.2;
  cfg.collude_fraction = 0.1;
  cfg.staked_fraction = 0.1;
  std::array<std::size_t, strategy::kNumStrategies> counts{};
  constexpr std::uint32_t kIds = 100000;
  for (std::uint32_t id = 0; id < kIds; ++id) {
    ++counts[static_cast<std::size_t>(strategy::assign(id, cfg))];
  }
  const auto frac = [&](Strategy s) {
    return static_cast<double>(counts[static_cast<std::size_t>(s)]) / kIds;
  };
  EXPECT_NEAR(frac(Strategy::kFreeRider), 0.2, 0.01);
  EXPECT_NEAR(frac(Strategy::kWhitewasher), 0.2, 0.01);
  EXPECT_NEAR(frac(Strategy::kColluder), 0.1, 0.01);
  EXPECT_NEAR(frac(Strategy::kStakedSeeder), 0.1, 0.01);
  EXPECT_NEAR(frac(Strategy::kHonest), 0.4, 0.01);
}

TEST(StrategyAssign, IsAPureFunctionOfIdAndConfig) {
  StrategyConfig cfg;
  cfg.free_rider_fraction = 0.3;
  cfg.staked_fraction = 0.3;
  for (std::uint32_t id = 0; id < 512; ++id) {
    EXPECT_EQ(strategy::assign(id, cfg), strategy::assign(id, cfg));
  }
}

TEST(StrategyAssign, ZeroFractionsAssignEveryoneHonest) {
  const StrategyConfig cfg;
  EXPECT_FALSE(cfg.enabled());
  for (std::uint32_t id = 0; id < 512; ++id) {
    EXPECT_EQ(strategy::assign(id, cfg), Strategy::kHonest);
  }
}

TEST(StrategyLayer, DefaultRunReportsAllHonestAndNoAttackCounters) {
  core::MarketConfig cfg;
  cfg.protocol.initial_peers = 40;
  cfg.protocol.max_peers = 40;
  cfg.protocol.initial_credits = 25;
  cfg.protocol.seed = 7;
  cfg.horizon = 80.0;
  cfg.snapshot_interval = 20.0;
  core::CreditMarket market(cfg);
  const auto report = market.run();
  EXPECT_EQ(report.counter("strat.whitewash_resets"), 0u);
  EXPECT_EQ(report.counter("strat.collusion_volume"), 0u);
  EXPECT_EQ(report.counter("strat.stake_locked"), 0u);
  EXPECT_EQ(report.final_strategy.attackers(), 0u);
  EXPECT_TRUE(report.ledger_conserved);
}

TEST(StrategyLayer, FreeRidersNeverUploadOrEarn) {
  sim::Simulator sim;
  p2p::ProtocolConfig cfg;
  cfg.initial_peers = 80;
  cfg.max_peers = 80;
  cfg.initial_credits = 50;
  cfg.seed = 21;
  cfg.strat.free_rider_fraction = 0.25;
  p2p::StreamingProtocol proto(cfg, sim);
  proto.start();
  sim.run_until(150.0);
  std::size_t free_riders = 0;
  std::uint64_t honest_uploads = 0;
  const p2p::PeerTable& peers = proto.peer_table();
  for (const auto id : proto.alive_peers()) {
    if (proto.strategy_of(id) == Strategy::kFreeRider) {
      ++free_riders;
      EXPECT_EQ(peers.chunks_uploaded(id), 0u) << "peer " << id;
      EXPECT_EQ(peers.credits_earned(id), 0u) << "peer " << id;
    } else {
      honest_uploads += peers.chunks_uploaded(id);
    }
  }
  EXPECT_GT(free_riders, 0u);
  EXPECT_GT(honest_uploads, 0u);
  // Closed market: free-riding shifts credit, never creates or destroys it.
  EXPECT_EQ(proto.ledger().circulating(), 80u * 50u);
  EXPECT_TRUE(proto.ledger().audit());
}

// The satellite-1 regression: under the default churn.rejoin_mint = full,
// a whitewasher that cycles its identity re-mints the full join endowment —
// the loophole exists and is measurable. The policy knobs then close it.
TEST(StrategyLayer, WhitewashersExtractCreditUnderDefaultFullRejoinMint) {
  core::MarketConfig cfg;
  cfg.protocol.initial_peers = 60;
  cfg.protocol.max_peers = 60;
  cfg.protocol.initial_credits = 25;
  cfg.protocol.seed = 33;
  cfg.protocol.strat.whitewash_fraction = 0.25;
  cfg.protocol.strat.whitewash_threshold = 20.0;
  cfg.horizon = 200.0;
  cfg.snapshot_interval = 50.0;
  core::CreditMarket market(cfg);
  const auto report = market.run();
  EXPECT_GT(report.counter("strat.whitewash_resets"), 0u);
  EXPECT_GT(report.counter("strat.whitewash_minted"), 0u);
  // Every cycle burns the abandoned balance and mints a fresh endowment;
  // the ledger books both, so the audit must still balance.
  EXPECT_TRUE(report.ledger_conserved);
  const auto& ledger = market.protocol().ledger();
  EXPECT_EQ(ledger.total_minted(),
            60u * 25u + report.counter("strat.whitewash_minted"));
  EXPECT_GE(ledger.total_burned(), report.counter("strat.whitewash_burned"));
}

TEST(StrategyLayer, RejoinMintNoneMakesWhitewashingIrrational) {
  core::MarketConfig cfg;
  cfg.protocol.initial_peers = 60;
  cfg.protocol.max_peers = 60;
  cfg.protocol.initial_credits = 25;
  cfg.protocol.seed = 33;
  cfg.protocol.strat.whitewash_fraction = 0.25;
  cfg.protocol.strat.whitewash_threshold = 20.0;
  cfg.protocol.churn.rejoin_mint = p2p::ChurnConfig::RejoinMint::kNone;
  cfg.horizon = 200.0;
  cfg.snapshot_interval = 50.0;
  core::CreditMarket market(cfg);
  const auto report = market.run();
  // A reset would grant 0 credits, never more than the abandoned balance,
  // so a rational whitewasher never cycles: the market stays closed.
  EXPECT_EQ(report.counter("strat.whitewash_resets"), 0u);
  EXPECT_EQ(report.counter("strat.whitewash_minted"), 0u);
  EXPECT_EQ(market.protocol().ledger().circulating(), 60u * 25u);
  EXPECT_TRUE(report.ledger_conserved);
}

TEST(StrategyLayer, DecayedRejoinMintDampsButAllowsEarlyCycles) {
  core::MarketConfig base;
  base.protocol.initial_peers = 60;
  base.protocol.max_peers = 60;
  base.protocol.initial_credits = 25;
  base.protocol.seed = 33;
  base.protocol.strat.whitewash_fraction = 0.25;
  base.protocol.strat.whitewash_threshold = 20.0;
  base.horizon = 200.0;
  base.snapshot_interval = 50.0;

  core::MarketConfig decayed = base;
  decayed.protocol.churn.rejoin_mint = p2p::ChurnConfig::RejoinMint::kDecayed;
  // 0.8 keeps the first re-mint (round(25 * 0.8) = 20) profitable against
  // the 20-credit threshold, so early cycles still fire; later activations
  // decay to 16, 13, 10, ... and starve.
  decayed.protocol.churn.rejoin_mint_decay = 0.8;

  core::CreditMarket full_market(base);
  const auto full = full_market.run();
  core::CreditMarket decayed_market(decayed);
  const auto damp = decayed_market.run();

  // First cycles are still profitable (grant 13 > a sub-13 balance), but
  // the geometric decay starves later cycles that full minting keeps
  // feeding forever.
  EXPECT_GT(damp.counter("strat.whitewash_resets"), 0u);
  EXPECT_GT(damp.counter("strat.whitewash_minted"), 0u);
  EXPECT_LT(damp.counter("strat.whitewash_minted"),
            full.counter("strat.whitewash_minted"));
  EXPECT_TRUE(damp.ledger_conserved);
}

TEST(StrategyLayer, CollusionLoopsConserveTheLedger) {
  core::MarketConfig cfg;
  cfg.protocol.initial_peers = 60;
  cfg.protocol.max_peers = 60;
  cfg.protocol.initial_credits = 40;
  cfg.protocol.seed = 55;
  cfg.protocol.strat.collude_fraction = 0.3;
  cfg.protocol.strat.collude_clique = 3;
  cfg.protocol.strat.collude_amount = 2;
  cfg.horizon = 150.0;
  cfg.snapshot_interval = 50.0;
  core::CreditMarket market(cfg);
  const auto report = market.run();
  EXPECT_GT(report.counter("strat.collusion_volume"), 0u);
  // Wash transfers move credit around a ring: closed market stays closed.
  EXPECT_EQ(market.protocol().ledger().circulating(), 60u * 40u);
  EXPECT_TRUE(report.ledger_conserved);
}

TEST(StrategyLayer, TradeCountIsPurchasesOnlyWithCollusionApart) {
  // market.transactions / market.volume count chunks delivered by a
  // purchase — price-0 chunks included (Poisson prices), collusion washes
  // excluded. In a closed market every purchase stays in a live peer's
  // counters, so the per-peer sums reconcile exactly.
  p2p::ProtocolConfig cfg;
  cfg.initial_peers = 60;
  cfg.max_peers = 60;
  cfg.initial_credits = 40;
  cfg.seed = 55;
  cfg.pricing.kind = econ::PricingKind::kPoisson;
  cfg.pricing.poisson_mean = 1.0;
  cfg.strat.collude_fraction = 0.3;
  cfg.strat.collude_clique = 3;
  cfg.strat.collude_amount = 2;
  sim::Simulator sim;
  p2p::StreamingProtocol proto(cfg, sim);
  proto.start();
  sim.run_until(150.0);
  std::uint64_t downloaded = 0;
  std::uint64_t spent = 0;
  const p2p::PeerTable& peers = proto.peer_table();
  for (p2p::PeerId id = 0; id < cfg.max_peers; ++id) {
    downloaded += peers.chunks_downloaded(id);
    spent += peers.credits_spent(id);
  }
  auto& metrics = proto.metrics();
  EXPECT_GT(metrics.counter("strat.collusion_volume"), 0u);
  EXPECT_EQ(downloaded, metrics.counter("market.transactions"));
  EXPECT_EQ(spent, metrics.counter("market.volume") +
                       metrics.counter("strat.collusion_volume"));
}

// Satellite 4: strategic departure under taxation + order-book. The
// whitewasher's exit path must cancel its resting ask (counted in
// book_asks_expired) and the re-mint cycle must keep the audit green with
// the treasury in play.
TEST(StrategyLayer, WhitewashUnderTaxationAndOrderBookStaysConserved) {
  core::MarketConfig cfg;
  cfg.protocol.initial_peers = 80;
  cfg.protocol.max_peers = 80;
  cfg.protocol.initial_credits = 50;
  cfg.protocol.seed = 77;
  cfg.protocol.market_mode = p2p::ProtocolConfig::MarketMode::kOrderBook;
  cfg.protocol.book.seller_fraction = 1.0;
  // Price supply above demand (spend 6/s at price 4 ⇒ ~1 chunk per buyer
  // per round vs 2.5 offered) so asks actually rest in the book — a fully
  // drained ask is removed by the fill, leaving nothing for the strategic
  // departure to cancel.
  cfg.protocol.book.base_price = 4;
  cfg.protocol.tax.enabled = true;
  cfg.protocol.tax.rate = 0.1;
  cfg.protocol.tax.threshold = 30.0;
  cfg.protocol.strat.whitewash_fraction = 0.2;
  cfg.protocol.strat.whitewash_threshold = 15.0;
  cfg.horizon = 250.0;
  cfg.snapshot_interval = 50.0;
  core::CreditMarket market(cfg);
  const auto report = market.run();
  EXPECT_GT(report.counter("strat.whitewash_resets"), 0u);
  EXPECT_GT(report.counter("book.asks_expired"), 0u);
  EXPECT_TRUE(report.ledger_conserved);
}

TEST(StrategyLayer, StakedBondsConserveSupplyInClosedMarket) {
  sim::Simulator sim;
  p2p::ProtocolConfig cfg;
  cfg.initial_peers = 60;
  cfg.max_peers = 60;
  cfg.initial_credits = 50;
  cfg.seed = 91;
  cfg.strat.staked_fraction = 0.3;
  cfg.strat.stake_amount = 20;
  p2p::StreamingProtocol proto(cfg, sim);
  proto.start();
  sim.run_until(150.0);
  const auto& ledger = proto.ledger();
  EXPECT_GT(ledger.total_staked(), 0u);
  // Bonding moves credit out of circulation without minting or burning:
  // circulating + staked is exactly the endowment, and the extended audit
  // (which books the staked column) still balances.
  EXPECT_EQ(ledger.circulating() + ledger.total_staked(), 60u * 50u);
  EXPECT_TRUE(ledger.audit());
}

TEST(StrategyLayer, DepartingStakedSeedersAreSlashed) {
  core::MarketConfig cfg;
  cfg.protocol.initial_peers = 80;
  cfg.protocol.max_peers = 160;
  cfg.protocol.initial_credits = 50;
  cfg.protocol.seed = 101;
  cfg.protocol.churn.enabled = true;
  cfg.protocol.churn.arrival_rate = 0.5;
  cfg.protocol.churn.mean_lifespan = 80.0;
  cfg.protocol.strat.staked_fraction = 0.4;
  cfg.protocol.strat.stake_amount = 20;
  cfg.protocol.strat.stake_slash = 0.5;
  cfg.horizon = 300.0;
  cfg.snapshot_interval = 60.0;
  core::CreditMarket market(cfg);
  const auto report = market.run();
  EXPECT_GT(report.counter("churn.departures"), 0u);
  EXPECT_GT(report.counter("strat.stake_locked"), 0u);
  // Slashing routes the forfeited bond fraction to the treasury and the
  // remainder back to the balance the departure then burns — no leak.
  EXPECT_GT(report.counter("strat.stake_slashed"), 0u);
  EXPECT_TRUE(report.ledger_conserved);
}

TEST(StrategyLayer, BreakdownAccountsForEveryAlivePeer) {
  sim::Simulator sim;
  p2p::ProtocolConfig cfg;
  cfg.initial_peers = 70;
  cfg.max_peers = 70;
  cfg.initial_credits = 30;
  cfg.seed = 111;
  cfg.strat.free_rider_fraction = 0.2;
  cfg.strat.whitewash_fraction = 0.1;
  cfg.strat.staked_fraction = 0.2;
  cfg.strat.stake_amount = 10;
  p2p::StreamingProtocol proto(cfg, sim);
  proto.start();
  sim.run_until(100.0);
  const auto bd = proto.strategy_breakdown();
  std::size_t total = 0;
  for (const std::size_t n : bd.population) total += n;
  EXPECT_EQ(total, proto.num_alive());
  EXPECT_NEAR(bd.total_credits(),
              static_cast<double>(proto.ledger().circulating()), 1e-9);
  EXPECT_DOUBLE_EQ(bd.staked_total,
                   static_cast<double>(proto.ledger().total_staked()));
}

}  // namespace
}  // namespace creditflow
