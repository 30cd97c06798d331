// Tests for util/math: log-domain arithmetic, quadrature, limits, and the
// dense linear algebra used by the equilibrium solvers.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "util/assert.hpp"
#include "util/math.hpp"

namespace creditflow::util {
namespace {

TEST(ParseNumber, AcceptsWholeNumbersOnly) {
  EXPECT_EQ(parse_number("12"), 12.0);
  EXPECT_EQ(parse_number(" 1e3"), 1000.0);
  EXPECT_EQ(parse_number("0.1"), 0.1);
  EXPECT_EQ(parse_number(""), std::nullopt);
  EXPECT_EQ(parse_number("abc"), std::nullopt);
  EXPECT_EQ(parse_number("12abc"), std::nullopt);
}

TEST(LogAddExp, MatchesDirectComputation) {
  EXPECT_NEAR(log_add_exp(std::log(2.0), std::log(3.0)), std::log(5.0),
              1e-12);
}

TEST(LogAddExp, HandlesNegInfinity) {
  EXPECT_DOUBLE_EQ(log_add_exp(kNegInf, 1.5), 1.5);
  EXPECT_DOUBLE_EQ(log_add_exp(1.5, kNegInf), 1.5);
  EXPECT_DOUBLE_EQ(log_add_exp(kNegInf, kNegInf), kNegInf);
}

TEST(LogAddExp, NoOverflowForLargeInputs) {
  const double big = 5000.0;
  EXPECT_NEAR(log_add_exp(big, big), big + std::log(2.0), 1e-9);
}

TEST(LogBinomial, SmallValuesExact) {
  EXPECT_NEAR(log_binomial(5, 2), std::log(10.0), 1e-12);
  EXPECT_NEAR(log_binomial(10, 0), 0.0, 1e-12);
  EXPECT_NEAR(log_binomial(10, 10), 0.0, 1e-12);
}

TEST(LogBinomialPmf, SumsToOne) {
  const std::uint64_t n = 30;
  const double p = 0.3;
  double total = 0.0;
  for (std::uint64_t k = 0; k <= n; ++k) {
    total += std::exp(log_binomial_pmf(n, k, p));
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(LogBinomialPmf, DegenerateP) {
  EXPECT_DOUBLE_EQ(log_binomial_pmf(5, 0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(log_binomial_pmf(5, 3, 0.0), kNegInf);
  EXPECT_DOUBLE_EQ(log_binomial_pmf(5, 5, 1.0), 0.0);
}

TEST(Integrate, PolynomialExact) {
  // ∫0..1 x^2 = 1/3.
  const double result =
      integrate([](double x) { return x * x; }, 0.0, 1.0, 1e-12);
  EXPECT_NEAR(result, 1.0 / 3.0, 1e-10);
}

TEST(Integrate, TranscendentalAccuracy) {
  const double result =
      integrate([](double x) { return std::exp(-x); }, 0.0, 5.0, 1e-12);
  EXPECT_NEAR(result, 1.0 - std::exp(-5.0), 1e-9);
}

TEST(Integrate, EmptyInterval) {
  EXPECT_DOUBLE_EQ(integrate([](double) { return 7.0; }, 2.0, 2.0), 0.0);
}

TEST(LimitFromBelow, ConvergentFunction) {
  // g(z) = 1/(2-z) -> 1 as z -> 1-.
  const auto r = limit_from_below([](double z) { return 1.0 / (2.0 - z); });
  EXPECT_FALSE(r.diverges);
  EXPECT_NEAR(r.value, 1.0, 1e-3);
}

TEST(LimitFromBelow, DivergentFunction) {
  // g(z) = 1/(1-z) blows up.
  const auto r = limit_from_below([](double z) { return 1.0 / (1.0 - z); });
  EXPECT_TRUE(r.diverges);
  EXPECT_TRUE(std::isinf(r.value));
}

TEST(LimitFromBelow, LogarithmicDivergenceDetected) {
  const auto r =
      limit_from_below([](double z) { return -std::log(1.0 - z); });
  EXPECT_TRUE(r.diverges);
}

TEST(SolveLinear, KnownSystem) {
  Matrix a(2, 2);
  a.at(0, 0) = 2.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 3.0;
  const auto x = solve_linear(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SolveLinear, PivotingHandlesZeroDiagonal) {
  Matrix a(2, 2);
  a.at(0, 0) = 0.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 0.0;
  const auto x = solve_linear(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SolveLinear, SingularThrows) {
  Matrix a(2, 2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 4.0;
  EXPECT_THROW((void)solve_linear(a, {1.0, 2.0}), InvariantError);
}

TEST(StationaryFromStochastic, TwoStateChain) {
  // P = [[0.9, 0.1], [0.5, 0.5]] has stationary (5/6, 1/6).
  Matrix p(2, 2);
  p.at(0, 0) = 0.9;
  p.at(0, 1) = 0.1;
  p.at(1, 0) = 0.5;
  p.at(1, 1) = 0.5;
  const auto pi = stationary_from_stochastic(p);
  EXPECT_NEAR(pi[0], 5.0 / 6.0, 1e-10);
  EXPECT_NEAR(pi[1], 1.0 / 6.0, 1e-10);
}

TEST(StationaryFromStochastic, UniformForDoublyStochastic) {
  Matrix p(3, 3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) p.at(i, j) = 1.0 / 3.0;
  const auto pi = stationary_from_stochastic(p);
  for (double v : pi) EXPECT_NEAR(v, 1.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace creditflow::util
