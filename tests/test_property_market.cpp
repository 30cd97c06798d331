// Market-level property tests: across a grid of configurations (endowment,
// pricing scheme, population, policies) the market must preserve its core
// invariants — credit conservation, bounded metrics, determinism, and
// economically sane behaviour.
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "core/market.hpp"
#include "econ/gini.hpp"

namespace creditflow::core {
namespace {

struct GridPoint {
  std::uint64_t credits;
  econ::PricingKind pricing;
  bool dynamic_spending;
  bool tax;
  bool churn;
};

class MarketProperty : public ::testing::TestWithParam<GridPoint> {};

MarketConfig config_for(const GridPoint& g) {
  MarketConfig cfg;
  cfg.protocol.initial_peers = 64;
  cfg.protocol.max_peers = g.churn ? 160 : 64;
  cfg.protocol.initial_credits = g.credits;
  cfg.protocol.seed = 1234;
  cfg.protocol.pricing.kind = g.pricing;
  cfg.protocol.pricing.poisson_mean = 1.0;
  cfg.protocol.spending.dynamic = g.dynamic_spending;
  cfg.protocol.spending.dynamic_threshold =
      static_cast<double>(g.credits);
  cfg.protocol.tax.enabled = g.tax;
  cfg.protocol.tax.rate = 0.15;
  cfg.protocol.tax.threshold = 0.8 * static_cast<double>(g.credits);
  cfg.protocol.churn.enabled = g.churn;
  cfg.protocol.churn.arrival_rate = 0.3;
  cfg.protocol.churn.mean_lifespan = 150.0;
  cfg.horizon = 250.0;
  cfg.snapshot_interval = 25.0;
  return cfg;
}

TEST_P(MarketProperty, InvariantsHold) {
  const auto& g = GetParam();
  CreditMarket market(config_for(g));
  const auto report = market.run();

  // 1. Ledger conservation (checked at every snapshot too, via the audit).
  EXPECT_TRUE(report.ledger_conserved);

  // 2. In a closed market the circulating supply is exactly N*c; with tax
  //    enabled the treasury may temporarily hold part of it.
  if (!g.churn) {
    const auto total = static_cast<double>(64 * g.credits);
    const double circulating = std::accumulate(
        report.final_balances.begin(), report.final_balances.end(), 0.0);
    EXPECT_LE(circulating, total + 1e-9);
    if (!g.tax) {
      EXPECT_NEAR(circulating, total, 1e-9);
    }
  }

  // 3. Gini metrics live in [0, 1).
  for (std::size_t i = 0; i < report.gini_balances.size(); ++i) {
    EXPECT_GE(report.gini_balances.value_at(i), 0.0);
    EXPECT_LT(report.gini_balances.value_at(i), 1.0);
  }

  // 4. Trade happened and rates are bounded by the protocol's physics:
  //    nobody can download faster than stream_rate + backlog catch-up,
  //    i.e. window/round worth of chunks per second.
  EXPECT_GT(report.counter("market.transactions"), 0u);
  for (double r : report.final_download_rates) {
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 48.0 + 2.0);
  }

  // 5. Buffer fill is a fraction.
  for (std::size_t i = 0; i < report.mean_buffer_fill.size(); ++i) {
    EXPECT_GE(report.mean_buffer_fill.value_at(i), 0.0);
    EXPECT_LE(report.mean_buffer_fill.value_at(i), 1.0);
  }

  // 6. Tax bookkeeping is consistent.
  EXPECT_GE(report.tax_collected, report.tax_redistributed);
  if (!g.tax) {
    EXPECT_EQ(report.tax_collected, 0u);
  }

  // 7. Determinism: the same config reruns identically.
  CreditMarket twin(config_for(g));
  const auto rerun = twin.run();
  EXPECT_EQ(rerun.counter("market.transactions"),
            report.counter("market.transactions"));
  EXPECT_EQ(rerun.final_balances, report.final_balances);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MarketProperty,
    ::testing::Values(
        GridPoint{10, econ::PricingKind::kUniform, false, false, false},
        GridPoint{50, econ::PricingKind::kUniform, false, false, false},
        GridPoint{200, econ::PricingKind::kUniform, false, false, false},
        GridPoint{50, econ::PricingKind::kPoisson, false, false, false},
        GridPoint{50, econ::PricingKind::kPerSeller, false, false, false},
        GridPoint{50, econ::PricingKind::kLinearSize, false, false, false},
        GridPoint{50, econ::PricingKind::kUniform, true, false, false},
        GridPoint{50, econ::PricingKind::kUniform, false, true, false},
        GridPoint{50, econ::PricingKind::kUniform, false, false, true},
        GridPoint{50, econ::PricingKind::kPoisson, true, true, false},
        GridPoint{100, econ::PricingKind::kUniform, true, true, true}));

// Pricing scheme changes the volume/transaction ratio in the expected way:
// mean price ~1 for uniform(1) and poisson(1), ~2 for per-seller [1,3].
TEST(MarketPricingProperty, VolumeTracksMeanPrice) {
  auto run_with = [](econ::PricingKind kind) {
    GridPoint g{50, kind, false, false, false};
    CreditMarket market(config_for(g));
    const auto report = market.run();
    return static_cast<double>(report.counter("market.volume")) /
           static_cast<double>(report.counter("market.transactions"));
  };
  EXPECT_NEAR(run_with(econ::PricingKind::kUniform), 1.0, 1e-9);
  // Poisson(1) conditioned on affordable purchases: mean near 1.
  EXPECT_NEAR(run_with(econ::PricingKind::kPoisson), 1.0, 0.25);
  EXPECT_NEAR(run_with(econ::PricingKind::kPerSeller), 2.0, 0.35);
}

// Churn invariant: minted = initial + arrivals*c; burned = departures' takes.
TEST(MarketChurnProperty, MintBurnAccounting) {
  GridPoint g{30, econ::PricingKind::kUniform, false, false, true};
  CreditMarket market(config_for(g));
  const auto report = market.run();
  const auto& ledger = market.protocol().ledger();
  EXPECT_EQ(ledger.total_minted(),
            (64 + report.counter("churn.arrivals")) * 30);
  EXPECT_TRUE(ledger.audit());
}

}  // namespace
}  // namespace creditflow::core
