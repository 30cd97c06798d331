// CreditFlow scenario engine: the registry of named experiment presets.
//
// Each preset reproduces the configuration behind one figure/extension of
// the paper's evaluation, expressed as a ScenarioSpec instead of a
// hand-rolled bench binary. The figure benches, the market CLI, and user
// sweeps all resolve scenarios here, so a configuration exists in exactly
// one place.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "scenario/spec.hpp"

namespace creditflow::scenario {

/// The paper's baseline market (Sec. VI): scale-free overlay, uniform
/// 1-credit pricing, symmetric capabilities, seed 2012, and a snapshot every
/// horizon/40 seconds (at least 50). The presets build on it, and so do the
/// analytical figure benches that run a market directly.
[[nodiscard]] core::MarketConfig paper_market(std::size_t peers,
                                              std::uint64_t credits,
                                              double horizon);

/// Name → ScenarioSpec map with ordered listing.
class ScenarioRegistry {
 public:
  /// Register a spec under spec.name; replaces an existing entry with the
  /// same name (user overrides of builtins are legitimate).
  void add(ScenarioSpec spec);

  /// Lookup; nullptr when absent.
  [[nodiscard]] const ScenarioSpec* find(std::string_view name) const;
  /// Lookup a copy; throws util::PreconditionError when absent.
  [[nodiscard]] ScenarioSpec get(std::string_view name) const;

  /// Names in registration order.
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::size_t size() const { return specs_.size(); }

  /// The built-in presets: one per reproduced paper figure plus the
  /// extension studies.
  [[nodiscard]] static const ScenarioRegistry& builtin();

 private:
  std::vector<ScenarioSpec> specs_;
};

}  // namespace creditflow::scenario
