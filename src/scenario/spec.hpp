// CreditFlow scenario engine: ScenarioSpec — one declarative description of
// a market experiment.
//
// A spec is a named MarketConfig plus run-shape extras (warmup for windowed
// rate measurements). It serializes to a line-oriented text form
//
//   scenario fig09_taxation
//   # Fig. 9: the taxation counter-measure, asymmetric utilization.
//   peers = 400
//   tax.rate = 0.1
//   ...
//
// that parses back bit-exactly (round-trip safe), so experiment
// configurations can live in files, diffs, and sweep logs instead of C++.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "core/market.hpp"

namespace creditflow::scenario {

/// Declarative description of one experiment.
struct ScenarioSpec {
  std::string name = "unnamed";
  std::string description;
  core::MarketConfig config;

  /// Fraction of the horizon to treat as warmup: at warmup * horizon the
  /// protocol opens its trailing rate window, so windowed spend rates (the
  /// paper's Fig. 1 readout) cover only the evolved market. 0 disables.
  double warmup_fraction = 0.0;

  /// The runnable configuration: `config` with the warmup fraction resolved
  /// to an absolute rate-window start time.
  [[nodiscard]] core::MarketConfig materialize() const;

  /// Set one parameter by key (or alias) from the scenario parameter
  /// table, the one writer of a named parameter. Returns a one-line
  /// diagnostic for unknown keys or malformed values (spec untouched),
  /// nullopt on success.
  [[nodiscard]] std::optional<std::string> set_checked(std::string_view key,
                                                       double value);

  /// Full text form; parse(serialize()) reproduces the spec exactly.
  [[nodiscard]] std::string serialize() const;
  /// Parse the text form; throws util::PreconditionError on malformed
  /// input, unknown keys or values the parameter's kind rejects.
  [[nodiscard]] static ScenarioSpec parse(const std::string& text);
};

}  // namespace creditflow::scenario
