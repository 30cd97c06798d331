// Tests for queueing/condensation: the threshold constant T of Eq. (4) and
// the Theorem 2/3 predicate, including the symmetric-utilization corollary.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "queueing/condensation.hpp"
#include "util/assert.hpp"

namespace creditflow::queueing {
namespace {

TEST(Condensation, BetaDensityHasFiniteThreshold) {
  // f(w) = 3(1-w)^2 vanishes quadratically at w=1, so
  // T = ∫ w f(w)/(1-w) dw = 3 ∫ w(1-w) dw = 1/2.
  const auto f = [](double w) { return 3.0 * (1.0 - w) * (1.0 - w); };
  const auto a = analyze_condensation_density(f, 0.2);
  EXPECT_TRUE(a.threshold_finite);
  EXPECT_NEAR(a.threshold, 0.5, 0.02);
  EXPECT_FALSE(a.condensation_predicted);  // c = 0.2 < T

  const auto b = analyze_condensation_density(f, 0.9);
  EXPECT_TRUE(b.condensation_predicted);  // c = 0.9 > T
}

TEST(Condensation, LinearDecayDensityThreshold) {
  // f(w) = 2(1-w): T = 2 ∫ w dw = 1.
  const auto f = [](double w) { return 2.0 * (1.0 - w); };
  const auto a = analyze_condensation_density(f, 0.5);
  EXPECT_TRUE(a.threshold_finite);
  EXPECT_NEAR(a.threshold, 1.0, 0.05);
  EXPECT_FALSE(a.condensation_predicted);
  EXPECT_TRUE(analyze_condensation_density(f, 1.5).condensation_predicted);
}

TEST(Condensation, UniformDensityDiverges) {
  // f ≡ 1 keeps mass near w=1, the integrand ~1/(1-z) diverges: T = +inf,
  // no condensation for any c.
  const auto f = [](double) { return 1.0; };
  const auto a = analyze_condensation_density(f, 1e9);
  EXPECT_FALSE(a.threshold_finite);
  EXPECT_TRUE(std::isinf(a.threshold));
  EXPECT_FALSE(a.condensation_predicted);
}

TEST(Condensation, CorollarySymmetricUtilizationNeverCondenses) {
  // Near-degenerate density at w=1 (the corollary's f): divergent T.
  const auto f = [](double w) { return std::exp(-100.0 * (1.0 - w)); };
  const auto a = analyze_condensation_density(f, 1e12);
  EXPECT_FALSE(a.threshold_finite);
  EXPECT_FALSE(a.condensation_predicted);
}

TEST(Condensation, EmpiricalThinTailFiniteThreshold) {
  // Utilizations concentrated well below 1 with a single anchor at 1:
  // after excluding the top atom, the density has no mass near w=1 and the
  // threshold is finite and moderate.
  std::vector<double> u(400);
  for (std::size_t i = 0; i < u.size(); ++i) {
    u[i] = 0.1 + 0.4 * static_cast<double>(i) / static_cast<double>(u.size());
  }
  u[0] = 1.0;  // normalization anchor
  const auto a = analyze_condensation_empirical(u, /*average_wealth=*/5.0);
  EXPECT_TRUE(a.threshold_finite);
  EXPECT_GT(a.threshold, 0.0);
  EXPECT_LT(a.threshold, 10.0);
}

TEST(Condensation, EmpiricalPredictsForLargeWealth) {
  std::vector<double> u(300, 0.3);
  u[0] = 1.0;
  const auto low = analyze_condensation_empirical(u, 0.05);
  const auto high = analyze_condensation_empirical(u, 500.0);
  EXPECT_TRUE(low.threshold_finite);
  EXPECT_FALSE(low.condensation_predicted);
  EXPECT_TRUE(high.condensation_predicted);
}

TEST(Condensation, EmpiricalSymmetricKeepsAtomDiverges) {
  // All peers at u = 1 with atom exclusion disabled: mass at w=1, T = +inf
  // (the corollary again, now through the empirical path).
  std::vector<double> u(100, 1.0);
  EmpiricalOptions opts;
  opts.exclude_top_atom = false;
  const auto a = analyze_condensation_empirical(u, 1e6, opts);
  EXPECT_FALSE(a.threshold_finite);
  EXPECT_FALSE(a.condensation_predicted);
}

TEST(Condensation, RejectsOutOfRangeUtilization) {
  const std::vector<double> bad = {0.5, 1.5};
  EXPECT_THROW((void)analyze_condensation_empirical(bad, 1.0),
               util::PreconditionError);
}

TEST(Condensation, RejectsZeroMassDensity) {
  const auto f = [](double) { return 0.0; };
  EXPECT_THROW((void)analyze_condensation_density(f, 1.0),
               util::PreconditionError);
}

// Property: threshold scales with how sharply the density dies at w=1 —
// heavier tails near 1 give larger thresholds (harder to condense).
class BetaTailProperty : public ::testing::TestWithParam<double> {};

TEST_P(BetaTailProperty, ThresholdMatchesClosedForm) {
  const double beta = GetParam();
  // f(w) = beta (1-w)^{beta-1}; T = beta ∫ w (1-w)^{beta-2} dw =
  // beta * (1/(beta-1) - 1/beta) = 1/(beta-1) for beta > 1.
  const auto f = [beta](double w) {
    return beta * std::pow(1.0 - w, beta - 1.0);
  };
  const auto a = analyze_condensation_density(f, 0.0);
  EXPECT_TRUE(a.threshold_finite);
  EXPECT_NEAR(a.threshold, 1.0 / (beta - 1.0), 0.08 / (beta - 1.0));
}

INSTANTIATE_TEST_SUITE_P(Betas, BetaTailProperty,
                         ::testing::Values(2.0, 3.0, 4.0, 6.0));

}  // namespace
}  // namespace creditflow::queueing
