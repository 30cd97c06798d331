// CreditFlow: the paper's asymptotic condensation criterion (Sec. V-A).
//
// In a network growing without bound at constant average wealth c = M/N, the
// paper defines the threshold constant (Eq. 4)
//
//     T = lim_{z→1⁻} ∫₀¹ w/(1 − z·w) f(w) dw,
//
// where f is the limiting density of the normalized utilizations u_i.
// Theorem 2: c ≤ T  ⇒ expected per-peer wealth stays bounded (no
// condensation). Theorem 3: c > T ⇒ wealth condenses onto at least one peer.
// Corollary: symmetric utilization (u ≡ 1, f degenerate at 1) gives T = +∞,
// so condensation never occurs.
//
// Mechanically, T is finite iff f decays toward w = 1 fast enough that
// ∫ w f(w)/(1−w) dw converges — i.e., iff the maximally-utilized peers are a
// vanishing, thin tail. Mass accumulating at w = 1 (including the symmetric
// case) pushes T to +∞.
#pragma once

#include <functional>
#include <span>

#include "util/math.hpp"

namespace creditflow::queueing {

/// Outcome of evaluating the threshold and the Theorem 2/3 predicate.
struct CondensationAnalysis {
  double threshold = 0.0;        ///< T; +inf when the limit diverges
  bool threshold_finite = false;
  double average_wealth = 0.0;   ///< c supplied by the caller
  bool condensation_predicted = false;  ///< Theorem 3: c > T
};

/// Evaluate T for an analytic utilization density f over [0,1].
/// f need not be normalized; it is rescaled to integrate to 1 first.
[[nodiscard]] CondensationAnalysis analyze_condensation_density(
    const std::function<double(double)>& density, double average_wealth);

/// Options for the empirical (finite-sample) analysis.
struct EmpiricalOptions {
  std::size_t bins = 64;  ///< histogram resolution for the density estimate
  /// The finite-N utilization vector always contains at least one u_i = 1
  /// (the normalization anchor). For the asymptotic criterion that atom is a
  /// vanishing fraction; when true (default) the top `top_exclude_fraction`
  /// of peers is excluded from the density estimate, matching the N→∞ view.
  bool exclude_top_atom = true;
  double top_exclude_fraction = 0.02;
};

/// Evaluate T from an empirical utilization vector (each u_i in [0,1]).
[[nodiscard]] CondensationAnalysis analyze_condensation_empirical(
    std::span<const double> utilization, double average_wealth,
    const EmpiricalOptions& opts = {});

}  // namespace creditflow::queueing
