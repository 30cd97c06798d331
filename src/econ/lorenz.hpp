// CreditFlow: Lorenz curves — the cumulative wealth-share curves of
// Fig. 2 of the paper (and the geometric object underlying the Gini index).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace creditflow::econ {

/// A Lorenz curve: points (x_k, y_k) with x = cumulative population share
/// (sorted poorest-first) and y = cumulative wealth share. Both run from
/// (0,0) to (1,1); y is convex and y_k <= x_k for wealth data.
struct LorenzCurve {
  std::vector<double> population_share;  ///< x coordinates (ascending)
  std::vector<double> wealth_share;      ///< y coordinates (ascending)

  [[nodiscard]] std::size_t size() const { return population_share.size(); }
  /// Linear interpolation of y at any x in [0,1].
  [[nodiscard]] double share_at(double x) const;
};

/// Lorenz curve of a *distribution*: each peer's wealth is an i.i.d. draw
/// from pmf over {0,1,...} (pmf need not be normalized; positive mean
/// required). This is the construction used for the paper's Fig. 2, applied
/// to the marginal PMF of Eq. (8).
[[nodiscard]] LorenzCurve lorenz_from_pmf(std::span<const double> pmf);

/// Area between the equality diagonal and the curve, times 2 — i.e., the
/// Gini index computed geometrically from the curve (trapezoidal).
[[nodiscard]] double gini_from_lorenz(const LorenzCurve& curve);

}  // namespace creditflow::econ
