// CreditFlow: numeric kernels shared by the queueing analytics —
// log-domain arithmetic (Buzen's algorithm at large populations), dense
// linear solves (stationary flow equations), quadrature and one-sided limit
// extrapolation (the condensation threshold integral, Eq. 4 of the paper).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace creditflow::util {

inline constexpr double kNegInf = -std::numeric_limits<double>::infinity();
inline constexpr double kPosInf = std::numeric_limits<double>::infinity();

/// Deterministic shortest decimal form that round-trips the exact double:
/// the same value always yields the same bytes, whole numbers print as
/// integers ("20", not "2e+01"), NaN prints as "nan". Shared by scenario
/// serialization, sweep CSV/JSON emission, and the run-store cache, whose
/// byte-identical-output contracts all rest on this one rendering.
[[nodiscard]] std::string format_double(double v);

/// Strict reader of a number typed by a user or read from a spec file: the
/// value when strtod consumes the whole non-empty text (leading blanks
/// aside), nullopt when it is empty or has trailing characters ("12abc").
[[nodiscard]] std::optional<double> parse_number(std::string_view text);

/// log(exp(a) + exp(b)) without overflow; handles -inf identities.
[[nodiscard]] double log_add_exp(double a, double b);

/// log(n choose k) via lgamma; requires 0 <= k <= n.
[[nodiscard]] double log_binomial(std::uint64_t n, std::uint64_t k);

/// log of the binomial PMF: log C(n,k) + k log(p) + (n-k) log(1-p).
/// Requires p in (0,1) unless k pins the degenerate case.
[[nodiscard]] double log_binomial_pmf(std::uint64_t n, std::uint64_t k,
                                      double p);

/// Adaptive Simpson quadrature of f over [a, b] to the given absolute
/// tolerance. `max_depth` bounds recursion.
[[nodiscard]] double integrate(const std::function<double(double)>& f,
                               double a, double b, double tol = 1e-10,
                               int max_depth = 40);

/// Result of a one-sided limit estimation (see `limit_from_below`).
struct LimitResult {
  double value = 0.0;     ///< estimated limit (kPosInf when diverging)
  bool diverges = false;  ///< true when g grows without bound as z -> 1-
};

/// Estimate lim_{z->1^-} g(z) by evaluating g at z_j = 1 - 2^{-j},
/// j = start..end, and testing for convergence vs. growth. This matches the
/// structure of the paper's threshold constant T (Eq. 4), whose integrand
/// blows up only when the utilization density carries mass near w = 1.
[[nodiscard]] LimitResult limit_from_below(
    const std::function<double(double)>& g, int j_start = 4, int j_end = 18,
    double rel_tol = 1e-4);

/// Dense square matrix in row-major order with the handful of operations the
/// library needs (no external BLAS/LAPACK dependency).
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] double& at(std::size_t r, std::size_t c);
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solve A x = b by LU decomposition with partial pivoting.
/// Throws PreconditionError on dimension mismatch and InvariantError when the
/// matrix is numerically singular.
[[nodiscard]] std::vector<double> solve_linear(Matrix a,
                                               std::vector<double> b);

/// Solve the singular homogeneous system x (P - I) = 0 for a row-stochastic
/// P, normalized so sum(x) = 1 — i.e., the stationary distribution. Uses the
/// standard replace-one-equation-with-normalization trick on the transpose.
[[nodiscard]] std::vector<double> stationary_from_stochastic(const Matrix& p);

}  // namespace creditflow::util
