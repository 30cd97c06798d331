// Tests for the scenario engine's declarative layer: the parameter
// namespace, spec serialization round-trips, sweep-axis parsing and grid
// expansion, and the built-in registry presets.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "core/market.hpp"
#include "scenario/scenario.hpp"

namespace creditflow::scenario {
namespace {

TEST(Params, SetAndReadRoundTrip) {
  core::MarketConfig cfg;
  EXPECT_EQ(set_param_checked(cfg, "credits", 250), std::nullopt);
  EXPECT_EQ(cfg.protocol.initial_credits, 250u);
  EXPECT_DOUBLE_EQ(read_param(cfg, "credits").value(), 250.0);

  EXPECT_EQ(set_param_checked(cfg, "tax.rate", 0.15), std::nullopt);
  EXPECT_DOUBLE_EQ(cfg.protocol.tax.rate, 0.15);
  EXPECT_EQ(set_param_checked(cfg, "churn.enabled", 1), std::nullopt);
  EXPECT_TRUE(cfg.protocol.churn.enabled);
}

TEST(Params, AliasesResolve) {
  core::MarketConfig cfg;
  EXPECT_EQ(set_param_checked(cfg, "c", 77), std::nullopt);
  EXPECT_EQ(cfg.protocol.initial_credits, 77u);
  EXPECT_EQ(set_param_checked(cfg, "n", 321), std::nullopt);
  EXPECT_EQ(cfg.protocol.initial_peers, 321u);
}

TEST(Params, UnknownKeyRejectedUntouched) {
  core::MarketConfig cfg;
  const auto before = cfg.protocol.initial_credits;
  EXPECT_EQ(set_param_checked(cfg, "no_such_knob", 1.0),
            "unknown parameter: no_such_knob");
  EXPECT_EQ(cfg.protocol.initial_credits, before);
  EXPECT_FALSE(read_param(cfg, "no_such_knob").has_value());
}

TEST(Params, PeersRaisesMaxPeersButExplicitMaxWins) {
  core::MarketConfig cfg;
  EXPECT_EQ(set_param_checked(cfg, "peers", 5000), std::nullopt);
  EXPECT_EQ(cfg.protocol.initial_peers, 5000u);
  EXPECT_GE(cfg.protocol.max_peers, 5000u);
  EXPECT_EQ(set_param_checked(cfg, "max_peers", 6000), std::nullopt);
  EXPECT_EQ(cfg.protocol.max_peers, 6000u);
}

TEST(Params, TableCoversEveryKeyBothWays) {
  // Every table entry must be readable and writable through its own key,
  // and every default value must pass its kind's check.
  core::MarketConfig cfg;
  for (const auto& desc : param_table()) {
    const auto value = read_param(cfg, desc.key);
    ASSERT_TRUE(value.has_value()) << desc.key;
    EXPECT_EQ(set_param_checked(cfg, desc.key, *value), std::nullopt)
        << desc.key;
  }
}

TEST(ScenarioSpec, SerializeParseRoundTrip) {
  ScenarioSpec spec = ScenarioRegistry::builtin().get("fig09_taxation");
  const std::string text = spec.serialize();
  const ScenarioSpec parsed = ScenarioSpec::parse(text);

  EXPECT_EQ(parsed.name, spec.name);
  EXPECT_EQ(parsed.description, spec.description);
  EXPECT_DOUBLE_EQ(parsed.warmup_fraction, spec.warmup_fraction);
  // Bit-exact equality of every parameter...
  for (const auto& desc : param_table()) {
    EXPECT_EQ(desc.get(parsed.config), desc.get(spec.config)) << desc.key;
  }
  // ...and therefore of the whole text form.
  EXPECT_EQ(parsed.serialize(), text);
}

TEST(ScenarioSpec, RoundTripPreservesUglyDoubles) {
  ScenarioSpec spec;
  spec.name = "precision";
  ASSERT_EQ(spec.set_checked("tax.rate", 0.1), std::nullopt);
  ASSERT_EQ(spec.set_checked("snapshot_interval", 15000.0 / 30.0),
            std::nullopt);
  ASSERT_EQ(spec.set_checked("base_spend_rate", 1.0 / 3.0), std::nullopt);
  const ScenarioSpec parsed = ScenarioSpec::parse(spec.serialize());
  EXPECT_EQ(parsed.config.protocol.tax.rate, 0.1);
  EXPECT_EQ(parsed.config.snapshot_interval, 15000.0 / 30.0);
  EXPECT_EQ(parsed.config.protocol.base_spend_rate, 1.0 / 3.0);
}

TEST(ScenarioSpec, ParseRejectsGarbage) {
  EXPECT_THROW((void)ScenarioSpec::parse("credits = notanumber"),
               util::PreconditionError);
  EXPECT_THROW((void)ScenarioSpec::parse("bogus_key = 3"),
               util::PreconditionError);
  EXPECT_THROW((void)ScenarioSpec::parse("just some words"),
               util::PreconditionError);
}

TEST(ScenarioSpec, MaterializeResolvesWarmup) {
  ScenarioSpec spec;
  spec.config.horizon = 4000.0;
  spec.warmup_fraction = 0.75;
  const auto cfg = spec.materialize();
  EXPECT_DOUBLE_EQ(cfg.rate_window_start, 3000.0);
  spec.warmup_fraction = 0.0;
  EXPECT_LT(spec.materialize().rate_window_start, 0.0);
}

TEST(SweepAxis, ParsesRangeListAndScalar) {
  const SweepAxis range = SweepAxis::parse("credits=50:800:50");
  EXPECT_EQ(range.param, "credits");
  ASSERT_EQ(range.values.size(), 16u);
  EXPECT_DOUBLE_EQ(range.values.front(), 50.0);
  EXPECT_DOUBLE_EQ(range.values.back(), 800.0);

  const SweepAxis list = SweepAxis::parse("tax.rate=0.1,0.2");
  ASSERT_EQ(list.values.size(), 2u);
  EXPECT_DOUBLE_EQ(list.values[1], 0.2);

  const SweepAxis scalar = SweepAxis::parse("peers=400");
  ASSERT_EQ(scalar.values.size(), 1u);
  EXPECT_DOUBLE_EQ(scalar.values[0], 400.0);

  // Default step of 1.
  const SweepAxis unit = SweepAxis::parse("seed=1:4");
  EXPECT_EQ(unit.values.size(), 4u);
}

TEST(SweepAxis, RejectsMalformedAxes) {
  EXPECT_THROW((void)SweepAxis::parse("credits"), util::PreconditionError);
  EXPECT_THROW((void)SweepAxis::parse("nope=1:3"), util::PreconditionError);
  EXPECT_THROW((void)SweepAxis::parse("credits=10:5"),
               util::PreconditionError);
  EXPECT_THROW((void)SweepAxis::parse("credits=1:10:0"),
               util::PreconditionError);
  EXPECT_THROW((void)SweepAxis::parse("credits=a,b"),
               util::PreconditionError);
}

TEST(SweepSpec, GridExpansionCountAndOrder) {
  SweepSpec sweep;
  sweep.axes.push_back(SweepAxis::parse("credits=50,100,200"));
  sweep.axes.push_back(SweepAxis::parse("tax.rate=0.1,0.2"));
  sweep.axes.push_back(SweepAxis::parse("tax.threshold=20:80:20"));
  sweep.seeds = 4;

  EXPECT_EQ(sweep.num_points(), 3u * 2u * 4u);
  EXPECT_EQ(sweep.num_runs(), 24u * 4u);

  // First axis slowest, last fastest.
  EXPECT_EQ(sweep.point(0), (std::vector<double>{50, 0.1, 20}));
  EXPECT_EQ(sweep.point(1), (std::vector<double>{50, 0.1, 40}));
  EXPECT_EQ(sweep.point(4), (std::vector<double>{50, 0.2, 20}));
  EXPECT_EQ(sweep.point(8), (std::vector<double>{100, 0.1, 20}));
  EXPECT_EQ(sweep.point(23), (std::vector<double>{200, 0.2, 80}));
}

TEST(SweepSpec, InstantiateAppliesAxesAndDerivesSeeds) {
  ScenarioSpec base;
  base.config.protocol.seed = 2012;
  SweepSpec sweep;
  sweep.axes.push_back(SweepAxis::parse("credits=50,100"));
  sweep.seeds = 3;

  const ScenarioSpec run0 = sweep.instantiate(base, 0);
  const ScenarioSpec run4 = sweep.instantiate(base, 4);
  EXPECT_EQ(run0.config.protocol.initial_credits, 50u);
  EXPECT_EQ(run4.config.protocol.initial_credits, 100u);
  // Replications of one point share the grid values but not the stream.
  const ScenarioSpec run3 = sweep.instantiate(base, 3);
  EXPECT_EQ(run3.config.protocol.initial_credits, 100u);
  EXPECT_NE(run3.config.protocol.seed, run4.config.protocol.seed);
  // And instantiation is pure: same run index, same seed.
  EXPECT_EQ(sweep.instantiate(base, 4).config.protocol.seed,
            run4.config.protocol.seed);
}

TEST(Registry, BuiltinPresetsResolve) {
  const auto& reg = ScenarioRegistry::builtin();
  EXPECT_GE(reg.size(), 11u);
  for (const auto& name : reg.names()) {
    SCOPED_TRACE(name);
    const ScenarioSpec spec = reg.get(name);
    EXPECT_EQ(spec.name, name);
    EXPECT_FALSE(spec.description.empty());
    // Every preset must be constructible as a market (validates the
    // config against every protocol precondition) and round-trip safe.
    const auto cfg = spec.materialize();
    EXPECT_NO_THROW(core::CreditMarket market(cfg));
    EXPECT_EQ(ScenarioSpec::parse(spec.serialize()).serialize(),
              spec.serialize());
  }
  // The figures the engine replaces are all present.
  for (const char* name :
       {"fig01_condensed", "fig01_balanced", "fig07_symmetric",
        "fig08_asymmetric", "fig09_taxation", "fig10_dynamic_spending",
        "fig11_churn", "ext01_auction", "ext02_injection"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
  }
}

TEST(Registry, UnknownScenarioThrows) {
  EXPECT_THROW((void)ScenarioRegistry::builtin().get("fig99"),
               util::PreconditionError);
  EXPECT_EQ(ScenarioRegistry::builtin().find("fig99"), nullptr);
}

TEST(Registry, AddReplacesByName) {
  ScenarioRegistry reg;
  ScenarioSpec a;
  a.name = "x";
  a.config.horizon = 100.0;
  reg.add(a);
  a.config.horizon = 200.0;
  reg.add(a);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_DOUBLE_EQ(reg.get("x").config.horizon, 200.0);
}

TEST(RateWindow, MarketReportsWindowedSpendRates) {
  core::MarketConfig cfg;
  cfg.protocol.initial_peers = 60;
  cfg.protocol.max_peers = 60;
  cfg.protocol.initial_credits = 40;
  cfg.protocol.seed = 7;
  cfg.horizon = 120.0;
  cfg.snapshot_interval = 20.0;
  cfg.rate_window_start = 90.0;
  core::CreditMarket market(cfg);
  const auto report = market.run();
  ASSERT_EQ(report.final_windowed_spend_rates.size(), 60u);
  double total = 0.0;
  for (const double r : report.final_windowed_spend_rates) total += r;
  EXPECT_GT(total, 0.0);

  // Without a window the vector stays empty.
  cfg.rate_window_start = -1.0;
  core::CreditMarket plain(cfg);
  EXPECT_TRUE(plain.run().final_windowed_spend_rates.empty());
}

}  // namespace
}  // namespace creditflow::scenario
