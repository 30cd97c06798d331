// CreditFlow scenario engine: the declarative parameter namespace.
//
// Every tunable of a market run is addressable by a stable string key
// ("credits", "tax.rate", "churn.arrival_rate", ...) with a uniform double
// value (booleans are 0/1, enums their small-integer code). Scenario specs,
// sweep axes, and the CLI all speak this one namespace, so a parameter
// added here is immediately sweepable, serializable, and scriptable. The
// table binds ScenarioSpec fields, `warmup` included: it is the whole
// namespace.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/spec.hpp"

namespace creditflow::scenario {

/// One addressable parameter: name, typed accessors, and a value kind that
/// defines what inputs are well-formed. Setters historically did raw
/// static_casts, so a negative count silently wrapped to a huge unsigned —
/// the kind lets every entry reject malformed values with a diagnostic
/// instead.
struct ParamDesc {
  enum class Kind : std::uint8_t {
    kReal,      ///< any finite double
    kCount,     ///< finite integer-valued, >= 0 (unsigned field behind it)
    kSeed,      ///< finite integer-valued, in [0, 2^64): a 64-bit RNG seed
    kFraction,  ///< finite, in [0, 1]
    kBool,      ///< exactly 0 or 1
    kEnum,      ///< integer-valued code in [0, enum_max]
  };

  /// Counts route through std::size_t / uint64_t casts; anything above
  /// this is a typo, not a population size, and the cast itself would be
  /// UB-ish territory on a double this large anyway.
  static constexpr double kMaxCount = 1e15;

  std::string_view key;
  double (*get)(const ScenarioSpec&);
  void (*set)(ScenarioSpec&, double);
  Kind kind = Kind::kReal;
  double enum_max = 0.0;  ///< highest valid code (kEnum only)

  /// Empty string when `value` is well-formed for this parameter; a
  /// one-line diagnostic ("peers: count must be a non-negative integer,
  /// got -5") otherwise.
  [[nodiscard]] std::string check(double value) const;
};

/// The full parameter table in canonical (serialization) order. Order
/// matters when applying a whole spec: e.g. `peers` raises `max_peers` to
/// stay consistent, and a later explicit `max_peers` entry then overrides.
[[nodiscard]] const std::vector<ParamDesc>& param_table();

/// Resolve a key (or one of its aliases: `c` → credits, `n` → peers) to its
/// descriptor; nullptr for unknown keys.
[[nodiscard]] const ParamDesc* find_param(std::string_view key);

}  // namespace creditflow::scenario
