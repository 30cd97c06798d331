// Tests for core: CreditMarket runs, Table I mapping extraction, the
// SustainabilityAnalyzer pipeline, and reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/analyzer.hpp"
#include "core/market.hpp"

namespace creditflow::core {
namespace {

MarketConfig small_market() {
  MarketConfig cfg;
  cfg.protocol.initial_peers = 80;
  cfg.protocol.max_peers = 80;
  cfg.protocol.initial_credits = 40;
  cfg.protocol.seed = 5;
  cfg.horizon = 300.0;
  cfg.snapshot_interval = 25.0;
  return cfg;
}

TEST(CreditMarket, RunProducesReport) {
  CreditMarket market(small_market());
  const auto report = market.run();
  EXPECT_EQ(report.rounds, 300u);
  EXPECT_GT(report.counter("market.transactions"), 1000u);
  EXPECT_TRUE(report.ledger_conserved);
  EXPECT_EQ(report.final_balances.size(), 80u);
  EXPECT_EQ(report.gini_balances.size(), 12u);
  EXPECT_NEAR(report.final_wealth.mean, 40.0, 1e-9);
  EXPECT_GT(report.mean_buffer_fill.last_value(), 0.5);
}

TEST(CreditMarket, ReportCarriesTheRegistryCountersByName) {
  CreditMarket market(small_market());
  const auto report = market.run();
  const auto& metrics = market.protocol().metrics();
  EXPECT_EQ(report.counters, metrics.counters());
  EXPECT_EQ(report.counter("market.transactions"),
            metrics.counter("market.transactions"));
  // A misspelt name fails instead of reading 0.
  EXPECT_THROW((void)report.counter("market.transaction"),
               util::PreconditionError);
}

TEST(CreditMarket, RunTwiceThrows) {
  CreditMarket market(small_market());
  (void)market.run();
  EXPECT_THROW((void)market.run(), util::PreconditionError);
}

TEST(CreditMarket, DeterministicForSameSeed) {
  CreditMarket a(small_market());
  CreditMarket b(small_market());
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.counter("market.transactions"),
            rb.counter("market.transactions"));
  EXPECT_EQ(ra.final_balances, rb.final_balances);
}

TEST(CreditMarket, SeedChangesOutcome) {
  auto cfg = small_market();
  cfg.protocol.seed = 6;
  CreditMarket a(small_market());
  CreditMarket b(cfg);
  EXPECT_NE(a.run().counter("market.transactions"),
            b.run().counter("market.transactions"));
}

TEST(CreditMarket, SnapshotAtARoundTimeSeesTheStateBeforeThatRound) {
  // Snapshots and rounds share their times (every 25th second is both).
  // Equal-time events fire in scheduling order across the market and the
  // protocol, so the snapshot at t precedes the round at t and reads the
  // state round t - 1 left behind.
  auto cfg = small_market();
  cfg.series_every_rounds = 1;
  CreditMarket market(cfg);
  const auto report = market.run();
  const auto& rows = market.series()->rows();
  ASSERT_EQ(rows.size(), 300u);
  ASSERT_EQ(report.gini_balances.size(), 12u);
  for (std::size_t k = 0; k < report.gini_balances.size(); ++k) {
    const auto t = static_cast<std::size_t>(report.gini_balances.time_at(k));
    const double gini = report.gini_balances.value_at(k);
    ASSERT_EQ(rows[t - 2].round, t - 1);
    EXPECT_EQ(gini, rows[t - 2].gini_balances) << "snapshot at t=" << t;
    EXPECT_NE(gini, rows[t - 1].gini_balances) << "snapshot at t=" << t;
  }
}

TEST(CreditMarket, ReportSummary) {
  CreditMarket market(small_market());
  const auto report = market.run();
  EXPECT_FALSE(report.summary().empty());
  EXPECT_GT(report.converged_gini(), 0.0);
}

TEST(Mapping, EmpiricalRequiresTrace) {
  CreditMarket market(small_market());  // trace disabled
  (void)market.run();
  EXPECT_THROW((void)market.empirical_mapping(), util::PreconditionError);
}

TEST(Mapping, EmpiricalFromTraceIsStochastic) {
  auto cfg = small_market();
  cfg.enable_trace = true;
  CreditMarket market(cfg);
  (void)market.run();
  const auto m = market.empirical_mapping();
  EXPECT_TRUE(m.transfer.is_stochastic(1e-9));
  // λ came from actual earnings: strictly positive in a healthy market.
  for (double l : m.arrival_rates) EXPECT_GT(l, 0.0);
  // In the balanced capacity-capped market, utilization is near-symmetric:
  // most peers earn close to the cap.
  double min_u = 1.0;
  for (double u : m.utilization) min_u = std::min(min_u, u);
  EXPECT_GT(min_u, 0.3);
}

TEST(Analyzer, SymmetricUtilizationInvokesCorollary) {
  const std::vector<double> u(50, 1.0);
  const auto verdict = analyze_utilization(u, 50 * 20);
  EXPECT_TRUE(verdict.symmetric_utilization);
  EXPECT_FALSE(verdict.condensation.threshold_finite);
  EXPECT_FALSE(verdict.condensation.condensation_predicted);
  // Exact symmetric equilibrium: E[B_i] = c for all i.
  for (double e : verdict.expected_wealth) EXPECT_NEAR(e, 20.0, 1e-6);
  EXPECT_NEAR(verdict.gini_of_expectations, 0.0, 1e-9);
}

TEST(Analyzer, AsymmetricPredictsCondensationAtHighWealth) {
  // Thin tail below u=1: finite threshold; push c far above it.
  std::vector<double> u(100);
  for (std::size_t i = 0; i < u.size(); ++i) {
    u[i] = 0.05 + 0.5 * static_cast<double>(i) / 100.0;
  }
  u[0] = 1.0;
  // The bulk sits near w ≈ 0.3, so T ≈ E[w/(1-w)] ≈ 0.45: c = 0.1 is safely
  // below, c = 400 far above.
  const auto low = analyze_utilization(u, 10);         // c = 0.1
  const auto high = analyze_utilization(u, 100 * 400); // c = 400
  EXPECT_FALSE(low.symmetric_utilization);
  EXPECT_TRUE(high.condensation.threshold_finite);
  EXPECT_TRUE(high.condensation.condensation_predicted);
  EXPECT_FALSE(low.condensation.condensation_predicted);
  // The critical peer holds nearly everything at high c.
  const auto max_wealth =
      *std::max_element(high.expected_wealth.begin(),
                        high.expected_wealth.end());
  EXPECT_GT(max_wealth, 0.8 * 100.0 * 400.0);
  EXPECT_GT(high.gini_of_expectations, 0.8);
}

TEST(Analyzer, EfficiencyIncreasesWithWealthBothModels) {
  const std::vector<double> u(200, 1.0);
  const auto poor = analyze_utilization(u, 200 * 1);   // c=1
  const auto rich = analyze_utilization(u, 200 * 8);   // c=8
  EXPECT_LT(poor.efficiency_exact, rich.efficiency_exact);
  EXPECT_NEAR(poor.efficiency_eq9, 1.0 - std::exp(-1.0), 1e-9);
  // The exact symmetric product form gives busy probability
  // M/(M+N-1) ≈ c/(c+1) — systematically below the paper's Eq. (9)
  // (which rests on the Eq. 8 multinomial approximation). Both agree the
  // efficiency rises with c; the gap is the approximation error explained
  // in src/queueing/approx.hpp.
  EXPECT_NEAR(poor.efficiency_exact, 200.0 / 399.0, 1e-9);
  EXPECT_NEAR(rich.efficiency_exact, 1600.0 / 1799.0, 1e-9);
  EXPECT_GT(poor.efficiency_eq9, poor.efficiency_exact);
  EXPECT_GT(rich.efficiency_eq9, rich.efficiency_exact);
}

TEST(Analyzer, PredictedGiniAtSymmetricEquilibriumNearHalf) {
  // The exact product-form equilibrium at symmetric utilization has a
  // geometric-like marginal whose sample Gini approaches ~0.5 for large c.
  const std::vector<double> u(60, 1.0);
  const auto verdict = analyze_utilization(u, 60 * 50);
  EXPECT_GT(verdict.predicted_gini, 0.35);
  EXPECT_LT(verdict.predicted_gini, 0.6);
}

TEST(Analyzer, FullMarketPipelineRuns) {
  auto cfg = small_market();
  cfg.enable_trace = true;
  CreditMarket market(cfg);
  (void)market.run();
  const auto verdict = analyze_market(market.empirical_mapping());
  EXPECT_TRUE(verdict.irreducible);
  EXPECT_TRUE(verdict.equilibrium_exists);
  EXPECT_LT(verdict.equilibrium_residual, 1e-6);
  EXPECT_EQ(verdict.expected_wealth.size(), 80u);
}

TEST(Analyzer, RejectsTinyInputs) {
  EXPECT_THROW((void)analyze_utilization({1.0}, 10),
               util::PreconditionError);
}

}  // namespace
}  // namespace creditflow::core
