// CreditFlow: the paper's closed-form approximations of the credit
// distribution (Sec. V-B of the paper).
//
// Starting from the product-form law (Eq. 3), the paper applies the
// multinomial theorem (Eq. 5) and reads off a *multinomial-allocation*
// approximation of the marginal wealth distribution:
//
//   Eq. (6):  Q{B_i = b} = u_i^b C(M,b) (S - u_i)^{M-b} / S^M,  S = Σ_j u_j
//   Eq. (8):  symmetric case u_i = 1 ∀i — a Binomial(M, 1/N) marginal
//   Eq. (9):  effective spending rate  μ_i (1 - Q{B_i=0}) ≈ μ_i (1 - e^{-c})
//
// These differ from the exact marginals of ClosedNetwork (the approximation
// weights states by multinomial coefficients; the exact law weights each
// composition by ∏ u_i^{b_i} alone). Eq. (8) and Eq. (9) are implemented
// here; fig02 and fig03 print the Eq. (8) marginal next to the exact one to
// show the approximation error.
#pragma once

#include <cstdint>
#include <vector>

namespace creditflow::queueing {

/// Eq. (8): symmetric-utilization marginal, Binomial(M, 1/N) (length M+1).
[[nodiscard]] std::vector<double> approx_marginal_eq8(std::size_t num_peers,
                                                      std::uint64_t
                                                          total_credits);

/// Eq. (9): large-N content-exchange efficiency 1 - e^{-c} as a function of
/// the average wealth c = M/N.
[[nodiscard]] double efficiency_eq9(double average_wealth);

/// Exact finite-N counterpart of Eq. (9) under the Eq. (8) approximation:
/// 1 - ((N-1)/N)^M.
[[nodiscard]] double efficiency_finite(std::size_t num_peers,
                                       std::uint64_t total_credits);

}  // namespace creditflow::queueing
