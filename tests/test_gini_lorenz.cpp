// Tests for econ/gini, econ/lorenz, econ/wealth — the paper's condensation
// metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "econ/gini.hpp"
#include "econ/lorenz.hpp"
#include "econ/wealth.hpp"
#include "util/rng.hpp"

namespace creditflow::econ {
namespace {

TEST(Gini, PerfectEqualityIsZero) {
  const std::vector<double> w(100, 7.0);
  EXPECT_NEAR(gini(w), 0.0, 1e-12);
}

TEST(Gini, SingleOwnerApproachesOne) {
  std::vector<double> w(100, 0.0);
  w[42] = 1000.0;
  EXPECT_NEAR(gini(w), 0.99, 1e-9);  // (n-1)/n
}

TEST(Gini, KnownSmallSample) {
  // For {0, 1}: G = 1/2 exactly.
  const std::vector<double> w = {0.0, 1.0};
  EXPECT_NEAR(gini(w), 0.5, 1e-12);
}

TEST(Gini, ScaleInvariant) {
  util::Rng rng(3);
  std::vector<double> w(200);
  for (auto& x : w) x = rng.uniform(0.0, 10.0);
  std::vector<double> scaled = w;
  for (auto& x : scaled) x *= 123.0;
  EXPECT_NEAR(gini(w), gini(scaled), 1e-12);
}

TEST(Gini, UniformSampleNearOneThird) {
  // Uniform(0,1) has Gini 1/3.
  util::Rng rng(7);
  std::vector<double> w(200000);
  for (auto& x : w) x = rng.uniform();
  EXPECT_NEAR(gini(w), 1.0 / 3.0, 0.01);
}

TEST(Gini, ExponentialSampleNearHalf) {
  util::Rng rng(11);
  std::vector<double> w(200000);
  for (auto& x : w) x = rng.exponential(1.0);
  EXPECT_NEAR(gini(w), 0.5, 0.01);
}

TEST(Gini, RejectsNegativeOrZeroTotal) {
  const std::vector<double> neg = {1.0, -1.0};
  EXPECT_THROW((void)gini(neg), util::PreconditionError);
  const std::vector<double> zeros = {0.0, 0.0};
  EXPECT_THROW((void)gini(zeros), util::PreconditionError);
}

TEST(GiniFromPmf, DegenerateDistributionIsZero) {
  std::vector<double> pmf(11, 0.0);
  pmf[10] = 1.0;  // everyone has exactly 10
  EXPECT_NEAR(gini_from_pmf(pmf), 0.0, 1e-12);
}

TEST(GiniFromPmf, GeometricMatchesClosedForm) {
  // Geometric on {0,1,...} with parameter q has Gini 1/(1+q)... derived:
  // G = q/(1+q) wait — E|X-Y|/(2μ) with μ=q/(1-q) gives 1/(1+q).
  const double q = 0.8;
  std::vector<double> pmf(400);
  for (std::size_t b = 0; b < pmf.size(); ++b) {
    pmf[b] = (1.0 - q) * std::pow(q, static_cast<double>(b));
  }
  EXPECT_NEAR(gini_from_pmf(pmf), 1.0 / (1.0 + q), 1e-6);
}

TEST(GiniFromPmf, MatchesSampleGini) {
  // PMF {0: .5, 10: .5} -> i.i.d. sample Gini -> E|X-Y|/(2μ) = .5*10/(2*5)
  // = 0.5.
  std::vector<double> pmf(11, 0.0);
  pmf[0] = 0.5;
  pmf[10] = 0.5;
  EXPECT_NEAR(gini_from_pmf(pmf), 0.5, 1e-12);
}

TEST(GiniFromPmf, UnnormalizedPmfAccepted) {
  std::vector<double> pmf = {1.0, 0.0, 3.0};  // mass 4
  std::vector<double> normalized = {0.25, 0.0, 0.75};
  EXPECT_NEAR(gini_from_pmf(pmf), gini_from_pmf(normalized), 1e-12);
}

/// Lorenz curve of a finite sample (values >= 0, positive sum): the curve
/// tests below exercise share_at() and gini_from_lorenz() on it.
LorenzCurve lorenz_from_samples(std::vector<double> wealth) {
  std::sort(wealth.begin(), wealth.end());
  double total = 0.0;
  for (double w : wealth) total += w;
  LorenzCurve curve;
  curve.population_share.push_back(0.0);
  curve.wealth_share.push_back(0.0);
  double cum = 0.0;
  for (std::size_t k = 0; k < wealth.size(); ++k) {
    cum += wealth[k];
    curve.population_share.push_back(static_cast<double>(k + 1) /
                                     static_cast<double>(wealth.size()));
    curve.wealth_share.push_back(cum / total);
  }
  curve.wealth_share.back() = 1.0;  // absorb rounding
  return curve;
}

TEST(Lorenz, EqualityCurveIsDiagonal) {
  const std::vector<double> w(10, 2.0);
  const auto curve = lorenz_from_samples(w);
  for (std::size_t k = 0; k < curve.size(); ++k) {
    EXPECT_NEAR(curve.wealth_share[k], curve.population_share[k], 1e-12);
  }
  EXPECT_NEAR(gini_from_lorenz(curve), 0.0, 1e-12);
}

TEST(Lorenz, CurveIsMonotoneAndBelowDiagonal) {
  util::Rng rng(13);
  std::vector<double> w(500);
  for (auto& x : w) x = rng.exponential(0.5);
  const auto curve = lorenz_from_samples(w);
  double prev = 0.0;
  for (std::size_t k = 0; k < curve.size(); ++k) {
    EXPECT_GE(curve.wealth_share[k] + 1e-12, prev);
    EXPECT_LE(curve.wealth_share[k], curve.population_share[k] + 1e-9);
    prev = curve.wealth_share[k];
  }
  EXPECT_DOUBLE_EQ(curve.wealth_share.back(), 1.0);
  EXPECT_DOUBLE_EQ(curve.population_share.back(), 1.0);
}

TEST(Lorenz, GiniFromLorenzMatchesDirect) {
  util::Rng rng(17);
  std::vector<double> w(2000);
  for (auto& x : w) x = rng.exponential(1.0);
  const auto curve = lorenz_from_samples(w);
  EXPECT_NEAR(gini_from_lorenz(curve), gini(w), 1e-3);
}

TEST(Lorenz, ShareAtInterpolates) {
  const std::vector<double> w = {1.0, 1.0, 2.0};  // total 4
  const auto curve = lorenz_from_samples(w);
  EXPECT_NEAR(curve.share_at(0.0), 0.0, 1e-12);
  EXPECT_NEAR(curve.share_at(1.0), 1.0, 1e-12);
  // Bottom 2/3 of peers hold 2/4 = 0.5.
  EXPECT_NEAR(curve.share_at(2.0 / 3.0), 0.5, 1e-9);
}

TEST(Lorenz, FromPmfMatchesLargeSample) {
  // Binomial-ish PMF via direct enumeration vs sampled wealth.
  std::vector<double> pmf = {0.25, 0.5, 0.25};  // values 0,1,2; mean 1
  const auto curve = lorenz_from_pmf(pmf);
  EXPECT_NEAR(gini_from_lorenz(curve), gini_from_pmf(pmf), 1e-9);
}

TEST(Lorenz, RejectsZeroMean) {
  std::vector<double> pmf = {1.0};  // all mass at value 0
  EXPECT_THROW((void)lorenz_from_pmf(pmf), util::PreconditionError);
}

TEST(Wealth, SummaryFields) {
  const std::vector<double> w = {0.0, 0.0, 1.0, 3.0, 6.0};
  const auto s = summarize_wealth(w);
  EXPECT_DOUBLE_EQ(s.total, 10.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.median, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  EXPECT_DOUBLE_EQ(s.bankrupt_fraction, 0.4);
  EXPECT_GT(s.gini, 0.4);
  EXPECT_DOUBLE_EQ(s.top10_share, 0.6);  // top 1 of 5 holds 6/10
}

TEST(Wealth, AllBankruptIsReportedNotRejected) {
  const std::vector<double> w(5, 0.0);
  const auto s = summarize_wealth(w);
  EXPECT_DOUBLE_EQ(s.bankrupt_fraction, 1.0);
  EXPECT_DOUBLE_EQ(s.gini, 0.0);
}

TEST(Wealth, TopShare) {
  const std::vector<double> w = {1.0, 1.0, 1.0, 1.0, 6.0};
  EXPECT_DOUBLE_EQ(top_share(w, 0.2), 0.6);
  EXPECT_DOUBLE_EQ(top_share(w, 1.0), 1.0);
}

TEST(Wealth, FractionBelow) {
  const std::vector<double> w = {0.0, 1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(fraction_below(w, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(fraction_below(w, 0.5), 0.25);
}

TEST(Wealth, SortedAscending) {
  const std::vector<double> w = {3.0, 1.0, 2.0};
  const auto s = sorted_ascending(w);
  EXPECT_EQ(s, (std::vector<double>{1.0, 2.0, 3.0}));
}

}  // namespace
}  // namespace creditflow::econ
