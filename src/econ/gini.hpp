// CreditFlow: the Gini index — the paper's measure of wealth condensation
// (0 = perfect equality, →1 = extreme inequality; Sec. III-A / V-B2).
#pragma once

#include <span>
#include <vector>

namespace creditflow::econ {

/// Gini index of a finite sample of non-negative wealth values, computed
/// exactly from order statistics in O(n log n):
///   G = Σ_k (2k - n - 1) x_(k) / (n Σ x) ,  x_(k) ascending.
/// Requires a positive total. A sample of identical values gives 0; a sample
/// with a single owner gives (n-1)/n.
[[nodiscard]] double gini(std::span<const double> wealth);

/// Scratch-reusing flavor: the sample is copied into `scratch` and sorted
/// there, so periodic sampling performs no allocation once the buffer has
/// warmed up. Result is bit-identical to gini(wealth).
[[nodiscard]] double gini(std::span<const double> wealth,
                          std::vector<double>& scratch);

/// Gini index of a wealth *distribution* with PMF over {0,1,2,...}:
///   G = E|X - Y| / (2 E X)   for i.i.d. X, Y ~ pmf.
/// O(L) over the support via the CDF identity
///   E|X-Y| = 2 Σ_b F(b)(1 - F(b)).
/// Requires positive mean. PMF need not be normalized.
[[nodiscard]] double gini_from_pmf(std::span<const double> pmf);

}  // namespace creditflow::econ
