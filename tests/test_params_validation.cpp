// Negative-parse tests for the scenario parameter table (satellite 2): a
// malformed --set/sweep-axis value must die with one typed, single-line
// diagnostic — never an unhandled cast, a silent clamp, or a wrapped
// size_t. One test per parameter kind, plus the sweep-axis parse path and
// the `warmup` pseudo-parameter.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "scenario/params.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"
#include "util/assert.hpp"

namespace creditflow::scenario {
namespace {

std::string check_error(ScenarioSpec& spec, const std::string& key,
                        double value) {
  const auto err = spec.set_checked(key, value);
  return err.value_or("");
}

TEST(ParamValidation, CountRejectsNegativeAndFractional) {
  ScenarioSpec spec;
  EXPECT_EQ(check_error(spec, "peers", -5.0),
            "peers: count must be a non-negative integer, got -5");
  EXPECT_EQ(check_error(spec, "peers", 12.5),
            "peers: count must be a non-negative integer, got 12.5");
  EXPECT_EQ(check_error(spec, "peers", 64.0), "");
  EXPECT_EQ(spec.config.protocol.initial_peers, 64u);
}

TEST(ParamValidation, SeedTakesAny64BitInteger) {
  // Per-run seeds are derived 64-bit values, so an instantiated spec's
  // text must load back: the seed is not bounded like a population count.
  ScenarioSpec spec;
  EXPECT_EQ(check_error(spec, "seed", 1.1162342245156262e19), "");
  EXPECT_EQ(check_error(spec, "seed", -1.0),
            "seed: seed must be an integer in [0, 2^64), got -1");
  EXPECT_EQ(check_error(spec, "seed", 0x1p64),
            "seed: seed must be an integer in [0, 2^64), got "
            "1.8446744073709552e+19");
  EXPECT_EQ(check_error(spec, "seed", 2012.0), "");
  EXPECT_EQ(spec.config.protocol.seed, 2012u);
}

TEST(ParamValidation, FractionRejectsOutOfRange) {
  ScenarioSpec spec;
  EXPECT_EQ(check_error(spec, "book.seller_fraction", 1.5),
            "book.seller_fraction: fraction must be in [0, 1], got 1.5");
  EXPECT_EQ(check_error(spec, "strat.free_riders", -0.1),
            "strat.free_riders: fraction must be in [0, 1], got -0.1");
  EXPECT_EQ(check_error(spec, "strat.free_riders", 0.25), "");
  EXPECT_DOUBLE_EQ(spec.config.protocol.strat.free_rider_fraction, 0.25);
}

TEST(ParamValidation, BoolRejectsNonBinary) {
  ScenarioSpec spec;
  EXPECT_EQ(check_error(spec, "trace", 2.0),
            "trace: flag must be 0 or 1, got 2");
  EXPECT_EQ(check_error(spec, "churn.enabled", -1.0),
            "churn.enabled: flag must be 0 or 1, got -1");
  EXPECT_EQ(check_error(spec, "churn.enabled", 1.0), "");
  EXPECT_TRUE(spec.config.protocol.churn.enabled);
}

TEST(ParamValidation, EnumRejectsOutOfRangeCodes) {
  ScenarioSpec spec;
  EXPECT_EQ(check_error(spec, "seller_choice", 7.0),
            "seller_choice: code must be an integer in [0, 2], got 7");
  EXPECT_EQ(check_error(spec, "churn.rejoin_mint", 3.0),
            "churn.rejoin_mint: code must be an integer in [0, 2], got 3");
  EXPECT_EQ(check_error(spec, "churn.rejoin_mint", 1.5),
            "churn.rejoin_mint: code must be an integer in [0, 2], got 1.5");
  EXPECT_EQ(check_error(spec, "churn.rejoin_mint", 2.0), "");
  EXPECT_EQ(spec.config.protocol.churn.rejoin_mint,
            p2p::ChurnConfig::RejoinMint::kDecayed);
}

TEST(ParamValidation, NonFiniteValuesAreRejectedForEveryKind) {
  ScenarioSpec spec;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(check_error(spec, "peers", nan),
            "peers: value must be finite, got nan");
  EXPECT_EQ(check_error(spec, "tax.rate", inf),
            "tax.rate: value must be finite, got inf");
  EXPECT_EQ(check_error(spec, "round_seconds", -inf),
            "round_seconds: value must be finite, got -inf");
}

TEST(ParamValidation, UnknownKeyIsItsOwnDiagnostic) {
  ScenarioSpec spec;
  EXPECT_EQ(check_error(spec, "no.such.knob", 1.0),
            "unknown parameter: no.such.knob");
}

TEST(ParamValidation, WarmupIsValidatedAsAFraction) {
  ScenarioSpec spec;
  EXPECT_EQ(check_error(spec, "warmup", 1.5),
            "warmup: fraction must be in [0, 1], got 1.5");
  EXPECT_EQ(check_error(spec, "warmup", 0.5), "");
  EXPECT_DOUBLE_EQ(spec.warmup_fraction, 0.5);
}

TEST(ParamValidation, DiagnosticsAreSingleLine) {
  ScenarioSpec spec;
  for (const auto& [key, value] :
       {std::pair<const char*, double>{"peers", -1.0},
        {"book.seller_fraction", 2.0},
        {"trace", 0.5},
        {"pricing.kind", 9.0},
        {"warmup", -0.5}}) {
    const std::string err = check_error(spec, key, value);
    ASSERT_FALSE(err.empty()) << key;
    EXPECT_EQ(err.find('\n'), std::string::npos) << err;
  }
}

TEST(ParamValidation, RejectedSetLeavesTheSpecUntouched) {
  ScenarioSpec spec;
  const auto before = spec.serialize();
  (void)spec.set_checked("peers", -5.0);
  (void)spec.set_checked("tax.rate", 2.0);
  (void)spec.set_checked("warmup", 9.0);
  EXPECT_EQ(spec.serialize(), before);
}

TEST(ParamValidation, SpecFileValuesAreChecked) {
  // A spec file writes through the same typed checks as --set: a negative
  // count must not wrap to a huge unsigned, a warmup must be a fraction.
  try {
    (void)ScenarioSpec::parse("scenario bad\ncredits = -3\n");
    FAIL() << "expected PreconditionError";
  } catch (const util::PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(
        what.find("credits: count must be a non-negative integer, got -3"),
        std::string::npos)
        << what;
  }
  EXPECT_THROW((void)ScenarioSpec::parse("warmup = 2\n"),
               util::PreconditionError);
}

TEST(SweepAxisValidation, MalformedValuesFailAtParseTime) {
  // Each bad axis dies in SweepAxis::parse with one diagnostic — not
  // mid-sweep inside a cast.
  EXPECT_THROW((void)SweepAxis::parse("peers=100,-5,300"),
               util::PreconditionError);
  EXPECT_THROW((void)SweepAxis::parse("book.seller_fraction=0:2:0.5"),
               util::PreconditionError);
  EXPECT_THROW((void)SweepAxis::parse("churn.enabled=0,1,2"),
               util::PreconditionError);
  EXPECT_THROW((void)SweepAxis::parse("churn.rejoin_mint=0,5"),
               util::PreconditionError);
  EXPECT_THROW((void)SweepAxis::parse("warmup=0.5,1.5"),
               util::PreconditionError);
  EXPECT_THROW((void)SweepAxis::parse("peers=abc"), util::PreconditionError);
}

TEST(SweepAxisValidation, ValidAxesStillParse) {
  const auto counts = SweepAxis::parse("peers=100,200,300");
  EXPECT_EQ(counts.values.size(), 3u);
  const auto fracs = SweepAxis::parse("strat.whitewashers=0:0.4:0.2");
  EXPECT_EQ(fracs.values.size(), 3u);
  const auto modes = SweepAxis::parse("churn.rejoin_mint=0,1,2");
  EXPECT_EQ(modes.values.size(), 3u);
}

TEST(SweepAxisValidation, DiagnosticNamesTheOffendingAxis) {
  try {
    (void)SweepAxis::parse("peers=-5");
    FAIL() << "expected PreconditionError";
  } catch (const util::PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad sweep value"), std::string::npos) << what;
    EXPECT_NE(what.find("peers"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace creditflow::scenario
