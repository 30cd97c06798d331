#include "util/math.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "util/assert.hpp"

namespace creditflow::util {

std::string format_double(double v) {
  if (std::isnan(v)) return "nan";
  char buf[64];
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::optional<double> parse_number(std::string_view text) {
  const std::string terminated(text);
  char* end = nullptr;
  const double v = std::strtod(terminated.c_str(), &end);
  if (terminated.empty() || end != terminated.c_str() + terminated.size()) {
    return std::nullopt;
  }
  return v;
}

double log_add_exp(double a, double b) {
  if (a == kNegInf) return b;
  if (b == kNegInf) return a;
  const double hi = std::max(a, b);
  const double lo = std::min(a, b);
  return hi + std::log1p(std::exp(lo - hi));
}

double log_binomial(std::uint64_t n, std::uint64_t k) {
  CF_EXPECTS(k <= n);
  return std::lgamma(static_cast<double>(n) + 1.0) -
         std::lgamma(static_cast<double>(k) + 1.0) -
         std::lgamma(static_cast<double>(n - k) + 1.0);
}

double log_binomial_pmf(std::uint64_t n, std::uint64_t k, double p) {
  CF_EXPECTS(k <= n);
  CF_EXPECTS(p >= 0.0 && p <= 1.0);
  if (p == 0.0) return k == 0 ? 0.0 : kNegInf;
  if (p == 1.0) return k == n ? 0.0 : kNegInf;
  return log_binomial(n, k) + static_cast<double>(k) * std::log(p) +
         static_cast<double>(n - k) * std::log1p(-p);
}

namespace {

double simpson(double a, double fa, double b, double fb, double fm) {
  return (b - a) / 6.0 * (fa + 4.0 * fm + fb);
}

double adaptive_simpson_rec(const std::function<double(double)>& f, double a,
                            double fa, double b, double fb, double m,
                            double fm, double whole, double tol, int depth) {
  const double lm = 0.5 * (a + m);
  const double rm = 0.5 * (m + b);
  const double flm = f(lm);
  const double frm = f(rm);
  const double left = simpson(a, fa, m, fm, flm);
  const double right = simpson(m, fm, b, fb, frm);
  const double delta = left + right - whole;
  if (depth <= 0 || std::abs(delta) <= 15.0 * tol) {
    return left + right + delta / 15.0;
  }
  return adaptive_simpson_rec(f, a, fa, m, fm, lm, flm, left, 0.5 * tol,
                              depth - 1) +
         adaptive_simpson_rec(f, m, fm, b, fb, rm, frm, right, 0.5 * tol,
                              depth - 1);
}

}  // namespace

double integrate(const std::function<double(double)>& f, double a, double b,
                 double tol, int max_depth) {
  CF_EXPECTS(a <= b);
  CF_EXPECTS(tol > 0.0);
  if (a == b) return 0.0;
  const double m = 0.5 * (a + b);
  const double fa = f(a);
  const double fb = f(b);
  const double fm = f(m);
  const double whole = simpson(a, fa, b, fb, fm);
  return adaptive_simpson_rec(f, a, fa, b, fb, m, fm, whole, tol, max_depth);
}

LimitResult limit_from_below(const std::function<double(double)>& g,
                             int j_start, int j_end, double rel_tol) {
  CF_EXPECTS(j_start >= 1 && j_start < j_end);
  CF_EXPECTS(rel_tol > 0.0);
  LimitResult result;
  double prev = g(1.0 - std::ldexp(1.0, -j_start));
  double prev_growth = 0.0;
  int growth_streak = 0;
  for (int j = j_start + 1; j <= j_end; ++j) {
    const double z = 1.0 - std::ldexp(1.0, -j);
    const double cur = g(z);
    const double growth = cur - prev;
    const double scale = std::max({std::abs(cur), std::abs(prev), 1.0});
    if (std::abs(growth) <= rel_tol * scale) {
      result.value = cur;
      result.diverges = false;
      return result;
    }
    // For a divergent integrand (mass at w=1) the increments g(z_{j+1})-g(z_j)
    // do not decay: they approach a constant (logarithmic divergence) or grow
    // (polynomial divergence). Declare divergence after a sustained streak.
    if (growth > 0.0 && growth >= 0.8 * prev_growth) {
      ++growth_streak;
    } else {
      growth_streak = 0;
    }
    if (growth_streak >= 6) {
      result.value = kPosInf;
      result.diverges = true;
      return result;
    }
    prev_growth = growth;
    prev = cur;
  }
  // Ran out of refinement levels without clear convergence: extrapolate the
  // final value but do not claim divergence.
  result.value = prev;
  result.diverges = false;
  return result;
}

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

double& Matrix::at(std::size_t r, std::size_t c) {
  CF_EXPECTS(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double Matrix::at(std::size_t r, std::size_t c) const {
  CF_EXPECTS(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

std::vector<double> solve_linear(Matrix a, std::vector<double> b) {
  CF_EXPECTS(a.rows() == a.cols());
  CF_EXPECTS(b.size() == a.rows());
  const std::size_t n = a.rows();
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;

  // LU with partial pivoting, operating on a copy.
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    double best = std::abs(a.at(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::abs(a.at(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    CF_ENSURES_MSG(best > 1e-300, "singular matrix in solve_linear");
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c)
        std::swap(a.at(col, c), a.at(pivot, c));
      std::swap(b[col], b[pivot]);
    }
    const double diag = a.at(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a.at(r, col) / diag;
      if (factor == 0.0) continue;
      a.at(r, col) = 0.0;
      for (std::size_t c = col + 1; c < n; ++c)
        a.at(r, c) -= factor * a.at(col, c);
      b[r] -= factor * b[col];
    }
  }
  // Back substitution.
  std::vector<double> x(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double acc = b[i];
    for (std::size_t c = i + 1; c < n; ++c) acc -= a.at(i, c) * x[c];
    x[i] = acc / a.at(i, i);
  }
  return x;
}

std::vector<double> stationary_from_stochastic(const Matrix& p) {
  CF_EXPECTS(p.rows() == p.cols());
  const std::size_t n = p.rows();
  CF_EXPECTS(n > 0);
  // Solve (P^T - I) x = 0 with the last equation replaced by sum(x) = 1.
  Matrix a(n, n, 0.0);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      a.at(r, c) = p.at(c, r) - (r == c ? 1.0 : 0.0);
  for (std::size_t c = 0; c < n; ++c) a.at(n - 1, c) = 1.0;
  std::vector<double> b(n, 0.0);
  b[n - 1] = 1.0;
  auto x = solve_linear(std::move(a), std::move(b));
  // Numerical noise can leave tiny negatives; clamp and renormalize.
  double sum = 0.0;
  for (double& v : x) {
    v = std::max(v, 0.0);
    sum += v;
  }
  CF_ENSURES_MSG(sum > 0.0, "stationary solve produced a zero vector");
  for (double& v : x) v /= sum;
  return x;
}

}  // namespace creditflow::util
