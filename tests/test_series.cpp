// Tests for core/series: the per-round time-series sampler behind
// `market_cli --series-out`. Pins the cadence, the CSV shape, the
// conservation readouts, and — most importantly — that sampling is a pure
// readout: a sampled market produces byte-identical final state to an
// unsampled one (the sampler consumes no RNG).
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "core/market.hpp"
#include "core/series.hpp"
#include "scenario/registry.hpp"
#include "util/rng.hpp"

namespace creditflow::core {
namespace {

MarketConfig tiny_config() {
  MarketConfig cfg;
  cfg.protocol.initial_peers = 40;
  cfg.protocol.max_peers = 40;
  cfg.protocol.initial_credits = 25;
  cfg.protocol.seed = 99;
  cfg.horizon = 60.0;
  cfg.snapshot_interval = 15.0;
  return cfg;
}

TEST(RoundSeriesSampler, SamplesEveryRoundByDefaultCadence) {
  MarketConfig cfg = tiny_config();
  cfg.series_every_rounds = 1;
  CreditMarket market(cfg);
  const auto report = market.run();
  ASSERT_NE(market.series(), nullptr);
  const auto& rows = market.series()->rows();
  ASSERT_EQ(rows.size(), report.rounds);
  EXPECT_EQ(rows.front().round, 1u);
  EXPECT_EQ(rows.back().round, report.rounds);
  // Rounds fire every round_seconds starting one interval in.
  EXPECT_DOUBLE_EQ(rows.front().t, cfg.protocol.round_seconds);
}

TEST(RoundSeriesSampler, CadenceSkipsOffRounds) {
  MarketConfig cfg = tiny_config();
  cfg.series_every_rounds = 7;
  CreditMarket market(cfg);
  const auto report = market.run();
  ASSERT_NE(market.series(), nullptr);
  const auto& rows = market.series()->rows();
  ASSERT_EQ(rows.size(), report.rounds / 7);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].round, (i + 1) * 7);
  }
}

TEST(RoundSeriesSampler, DisabledByDefault) {
  CreditMarket market(tiny_config());
  (void)market.run();
  EXPECT_EQ(market.series(), nullptr);
}

TEST(RoundSeriesSampler, ClosedMarketConservesCreditSupplyInRows) {
  // No taxation, churn, or injection: every purchase is a transfer, so the
  // sampled credit supply must stay at the endowment in every row.
  MarketConfig cfg = tiny_config();
  cfg.series_every_rounds = 1;
  CreditMarket market(cfg);
  (void)market.run();
  ASSERT_NE(market.series(), nullptr);
  const double endowment =
      static_cast<double>(cfg.protocol.initial_peers) *
      cfg.protocol.initial_credits;
  for (const RoundSample& row : market.series()->rows()) {
    EXPECT_EQ(row.alive_peers, cfg.protocol.initial_peers);
    EXPECT_NEAR(row.credit_supply, endowment, 1e-6);
    EXPECT_NEAR(row.mean_balance,
                endowment / static_cast<double>(row.alive_peers), 1e-9);
    EXPECT_GE(row.gini_balances, 0.0);
    EXPECT_LE(row.gini_balances, 1.0);
    EXPECT_GE(row.mean_buffer_fill, 0.0);
    EXPECT_LE(row.mean_buffer_fill, 1.0);
  }
}

TEST(RoundSeriesSampler, PositiveSupplyKeepsGiniFinite) {
  MarketConfig cfg = tiny_config();
  cfg.series_every_rounds = 1;
  CreditMarket market(cfg);
  (void)market.run();
  ASSERT_NE(market.series(), nullptr);
  for (const RoundSample& row : market.series()->rows()) {
    EXPECT_TRUE(std::isfinite(row.gini_balances));
  }
}

TEST(RoundSeriesSampler, ZeroSupplyEmitsNanGiniNotZero) {
  // Inequality over zero credit is undefined; 0.0 would read as "perfectly
  // equal", hiding a fully-bankrupt market from trajectory plots. The
  // sampler emits nan (format_double renders the literal "nan"). The
  // golden-hash pins cover sweep/run CSVs, not series bytes, so this is
  // not a golden-output change.
  MarketConfig cfg = tiny_config();
  cfg.protocol.initial_credits = 0;
  cfg.series_every_rounds = 1;
  CreditMarket market(cfg);
  (void)market.run();
  ASSERT_NE(market.series(), nullptr);
  const auto& rows = market.series()->rows();
  ASSERT_FALSE(rows.empty());
  for (const RoundSample& row : rows) {
    EXPECT_EQ(row.credit_supply, 0.0);
    EXPECT_TRUE(std::isnan(row.gini_balances));
  }
  const std::string csv = market.series()->csv();
  EXPECT_NE(csv.find(",nan,"), std::string::npos);
}

TEST(RoundSeriesSampler, SamplingIsAPureReadout) {
  // The same seed with and without sampling must land the exact same final
  // state — the sampler reads, never draws from the RNG stream.
  MarketConfig plain = tiny_config();
  MarketConfig sampled = tiny_config();
  sampled.series_every_rounds = 1;
  CreditMarket a(plain);
  CreditMarket b(sampled);
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.rounds, rb.rounds);
  EXPECT_EQ(ra.counter("market.transactions"),
            rb.counter("market.transactions"));
  ASSERT_EQ(ra.final_balances.size(), rb.final_balances.size());
  for (std::size_t i = 0; i < ra.final_balances.size(); ++i) {
    EXPECT_EQ(ra.final_balances[i], rb.final_balances[i]) << "peer " << i;
  }
}

TEST(RoundSeriesSampler, CsvHasHeaderAndOneLinePerRow) {
  MarketConfig cfg = tiny_config();
  cfg.series_every_rounds = 10;
  CreditMarket market(cfg);
  (void)market.run();
  ASSERT_NE(market.series(), nullptr);
  const std::string csv = market.series()->csv();
  std::istringstream lines(csv);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line,
            "round,t,alive_peers,gini_balances,credit_supply,mean_balance,"
            "mean_buffer_fill");
  std::size_t rows = 0;
  while (std::getline(lines, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, market.series()->rows().size());
}

TEST(RoundSeriesSampler, OrderBookColumnsArePinned) {
  // The golden matrix hashes run CSVs, not the per-round series, so this
  // pins the book columns byte for byte: a limit-crossing, adaptively
  // repriced book under churn, sampled every round. Most rows rest asks at
  // two or more price levels, so the spread column is exercised too.
  const scenario::ScenarioSpec* preset =
      scenario::ScenarioRegistry::builtin().find("obk02_markup");
  ASSERT_NE(preset, nullptr);
  scenario::ScenarioSpec spec = *preset;
  const std::pair<const char*, double> overrides[] = {
      {"horizon", 200.0},          {"snapshot_interval", 50.0},
      {"book.pricing", 1.0},       {"book.cross", 2.0},
      {"book.limit_price", 3.0},   {"churn.enabled", 1.0},
      {"churn.arrival_rate", 0.5}, {"churn.mean_lifespan", 150.0},
      {"max_peers", 400.0},
  };
  for (const auto& [key, value] : overrides) {
    ASSERT_EQ(spec.set_checked(key, value), std::nullopt) << key;
  }
  MarketConfig cfg = spec.materialize();
  cfg.series_every_rounds = 1;
  CreditMarket market(cfg);
  (void)market.run();
  ASSERT_NE(market.series(), nullptr);
  const auto& rows = market.series()->rows();
  ASSERT_EQ(rows.size(), 200u);
  std::size_t spread_rows = 0;
  for (const RoundSample& row : rows) {
    if (row.book_spread != 0.0) ++spread_rows;
  }
  EXPECT_EQ(spread_rows, 185u);
  const std::uint64_t hash = util::fnv1a64(market.series()->csv());
  EXPECT_EQ(hash, 0xa828aa9b3571c9e5ULL) << std::hex << "0x" << hash;
}

}  // namespace
}  // namespace creditflow::core
