// CreditFlow: stationary credit-flow solver — Lemma 1 of the paper.
//
// The equilibrium earning-rate vector λ satisfies λP = λ for the credit
// transfer matrix P (Eq. 1). By Perron-Frobenius a positive solution exists
// for any irreducible stochastic P; we compute it by damped power iteration
// (scales to sparse, large N) or a direct LU solve (small N, exact).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "queueing/transfer_matrix.hpp"

namespace creditflow::queueing {

/// Options for the iterative solver.
struct EquilibriumOptions {
  std::size_t max_iterations = 100000;
  double tolerance = 1e-12;   ///< L1 change per iteration to declare converged
  double damping = 0.5;       ///< λ ← (1-d)·λP + d·λ kills periodic cycling
};

/// Result of solving λP = λ.
struct EquilibriumResult {
  std::vector<double> lambda;   ///< stationary flow, normalized to sum 1
  std::size_t iterations = 0;   ///< 0 for the direct method
  double residual = 0.0;        ///< ||λP − λ||∞ at the returned solution
  bool converged = false;
};

/// Damped power iteration from the uniform vector.
[[nodiscard]] EquilibriumResult solve_equilibrium_power(
    const TransferMatrix& p, const EquilibriumOptions& opts = {});

/// Direct dense solve of the stationary equations (O(N^3)); exact up to
/// rounding. Requires irreducible P for a strictly positive result.
[[nodiscard]] EquilibriumResult solve_equilibrium_direct(
    const TransferMatrix& p);

/// Dispatch: direct for small networks, power iteration otherwise.
[[nodiscard]] EquilibriumResult solve_equilibrium(
    const TransferMatrix& p, const EquilibriumOptions& opts = {});

/// ||λP − λ||∞ — residual of a candidate solution.
[[nodiscard]] double equilibrium_residual(const TransferMatrix& p,
                                          std::span<const double> lambda);

/// Normalized utilization (Eq. 2): u_i = (λ_i/μ_i) / max_j(λ_j/μ_j).
/// Requires all μ_i > 0 and at least one λ_i > 0. Every u_i ∈ [0, 1] and at
/// least one equals 1.
[[nodiscard]] std::vector<double> normalized_utilization(
    std::span<const double> lambda, std::span<const double> mu);

}  // namespace creditflow::queueing
