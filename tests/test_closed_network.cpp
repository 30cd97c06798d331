// Tests for queueing/closed_network (Buzen), queueing/mva, and
// queueing/approx — the product-form machinery of Sec. IV/V of the paper.
//
// The key validations are against brute-force enumeration of the state
// space for small (N, M), and cross-validation Buzen vs MVA for larger ones.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "queueing/approx.hpp"
#include "queueing/closed_network.hpp"
#include "queueing/mva.hpp"
#include "util/rng.hpp"

namespace creditflow::queueing {
namespace {

/// Brute force: enumerate all compositions of M over N queues, weight each
/// state by prod u_i^{b_i}, and accumulate marginals/expectations.
struct BruteForce {
  std::vector<std::vector<double>> marginals;  // [queue][b]
  std::vector<double> expected;
  double normalization = 0.0;

  BruteForce(const std::vector<double>& u, std::uint64_t m) {
    const std::size_t n = u.size();
    marginals.assign(n, std::vector<double>(m + 1, 0.0));
    expected.assign(n, 0.0);
    std::vector<std::uint64_t> state(n, 0);
    enumerate(u, m, 0, 1.0, state);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::uint64_t b = 0; b <= m; ++b) {
        marginals[i][b] /= normalization;
        expected[i] += static_cast<double>(b) * marginals[i][b];
      }
    }
  }

  void enumerate(const std::vector<double>& u, std::uint64_t remaining,
                 std::size_t k, double weight,
                 std::vector<std::uint64_t>& state) {
    if (k + 1 == u.size()) {
      state[k] = remaining;
      const double w =
          weight * std::pow(u[k], static_cast<double>(remaining));
      normalization += w;
      for (std::size_t i = 0; i < u.size(); ++i)
        marginals[i][state[i]] += w;
      return;
    }
    for (std::uint64_t b = 0; b <= remaining; ++b) {
      state[k] = b;
      enumerate(u, remaining - b, k + 1,
                weight * std::pow(u[k], static_cast<double>(b)), state);
    }
  }
};

TEST(ClosedNetwork, MatchesBruteForceSymmetric) {
  const std::vector<double> u = {1.0, 1.0, 1.0};
  const std::uint64_t m = 6;
  const ClosedNetwork net(u, m);
  const BruteForce ref(u, m);
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_NEAR(net.expected_wealth(i), ref.expected[i], 1e-10);
    const auto pmf = net.marginal(i);
    for (std::uint64_t b = 0; b <= m; ++b) {
      EXPECT_NEAR(pmf[b], ref.marginals[i][b], 1e-10)
          << "queue " << i << " b " << b;
    }
  }
}

TEST(ClosedNetwork, MatchesBruteForceAsymmetric) {
  const std::vector<double> u = {1.0, 0.6, 0.3, 0.8};
  const std::uint64_t m = 5;
  const ClosedNetwork net(u, m);
  const BruteForce ref(u, m);
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_NEAR(net.expected_wealth(i), ref.expected[i], 1e-10);
    const auto pmf = net.marginal(i);
    for (std::uint64_t b = 0; b <= m; ++b) {
      EXPECT_NEAR(pmf[b], ref.marginals[i][b], 1e-10);
    }
  }
}

TEST(ClosedNetwork, MarginalsSumToOne) {
  const std::vector<double> u = {1.0, 0.5, 0.25, 0.9, 0.7};
  const ClosedNetwork net(u, 40);
  for (std::size_t i = 0; i < u.size(); ++i) {
    const auto pmf = net.marginal(i);
    const double total = std::accumulate(pmf.begin(), pmf.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(ClosedNetwork, ExpectedWealthSumsToM) {
  const std::vector<double> u = {1.0, 0.4, 0.8, 0.2, 0.6, 0.9};
  const std::uint64_t m = 100;
  const ClosedNetwork net(u, m);
  double total = 0.0;
  for (std::size_t i = 0; i < u.size(); ++i) total += net.expected_wealth(i);
  EXPECT_NEAR(total, static_cast<double>(m), 1e-6);
}

TEST(ClosedNetwork, HigherUtilizationHoldsMoreWealth) {
  const std::vector<double> u = {1.0, 0.5};
  const ClosedNetwork net(u, 50);
  EXPECT_GT(net.expected_wealth(0), net.expected_wealth(1));
  EXPECT_LT(net.empty_probability(0), net.empty_probability(1));
}

TEST(ClosedNetwork, NearCriticalQueueCondenses) {
  // One queue at u=1, the rest well below: almost all credits pile onto the
  // critical queue — the paper's condensation configuration.
  std::vector<double> u(10, 0.3);
  u[0] = 1.0;
  const std::uint64_t m = 500;
  const ClosedNetwork net(u, m);
  EXPECT_GT(net.expected_wealth(0), 0.95 * static_cast<double>(m));
}

TEST(ClosedNetwork, SymmetricExpectationIsAverageWealth) {
  const std::vector<double> u(8, 1.0);
  const ClosedNetwork net(u, 80);
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_NEAR(net.expected_wealth(i), 10.0, 1e-8);
  }
}

TEST(ClosedNetwork, LargePopulationStableInLogSpace) {
  // M = 50000, N = 50 — the paper's Fig. 2 upper curve. This overflows any
  // linear-domain implementation; log-space Buzen must stay finite & exact.
  const std::vector<double> u(50, 1.0);
  const std::uint64_t m = 50000;
  const ClosedNetwork net(u, m);
  EXPECT_TRUE(std::isfinite(net.log_normalization(m)));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(net.expected_wealth(i), 1000.0, 1e-3);
  }
  // Exact closed form at symmetric utilization (uniform over compositions):
  // P(B_i = 0) = (N-1)/(M+N-1).
  const double p0 = net.empty_probability(0);
  EXPECT_NEAR(p0, 49.0 / 50049.0, 1e-9);
}

TEST(ClosedNetwork, TailProbabilityMonotone) {
  const std::vector<double> u = {1.0, 0.7, 0.4};
  const ClosedNetwork net(u, 30);
  for (std::size_t i = 0; i < u.size(); ++i) {
    double prev = 1.0;
    for (std::uint64_t b = 0; b <= 31; ++b) {
      const double t = net.tail_probability(i, b);
      EXPECT_LE(t, prev + 1e-12);
      prev = t;
    }
    EXPECT_DOUBLE_EQ(net.tail_probability(i, 31), 0.0);
  }
}

TEST(ClosedNetwork, ZeroUtilizationQueueHoldsNothing) {
  const std::vector<double> u = {1.0, 0.0, 0.5};
  const ClosedNetwork net(u, 20);
  EXPECT_DOUBLE_EQ(net.expected_wealth(1), 0.0);
  EXPECT_DOUBLE_EQ(net.marginal(1)[0], 1.0);
  EXPECT_DOUBLE_EQ(net.empty_probability(1), 1.0);
}

TEST(ClosedNetwork, BusyPlusEmptyIsOne) {
  const std::vector<double> u = {1.0, 0.3, 0.6};
  const ClosedNetwork net(u, 15);
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_NEAR(net.busy_probability(i) + net.empty_probability(i), 1.0,
                1e-12);
  }
}

TEST(ClosedNetwork, JointSampleSumsToM) {
  util::Rng rng(5);
  const std::vector<double> u = {1.0, 0.5, 0.8, 0.2};
  const std::uint64_t m = 37;
  const ClosedNetwork net(u, m);
  for (int trial = 0; trial < 20; ++trial) {
    const auto s = net.sample_joint(rng);
    const auto total =
        std::accumulate(s.begin(), s.end(), std::uint64_t{0});
    EXPECT_EQ(total, m);
  }
}

TEST(ClosedNetwork, JointSampleMeansMatchExpectations) {
  util::Rng rng(9);
  const std::vector<double> u = {1.0, 0.5, 0.25};
  const std::uint64_t m = 12;
  const ClosedNetwork net(u, m);
  std::vector<double> mean(u.size(), 0.0);
  const int trials = 20000;
  for (int trial = 0; trial < trials; ++trial) {
    const auto s = net.sample_joint(rng);
    for (std::size_t i = 0; i < u.size(); ++i)
      mean[i] += static_cast<double>(s[i]);
  }
  for (std::size_t i = 0; i < u.size(); ++i) {
    mean[i] /= trials;
    EXPECT_NEAR(mean[i], net.expected_wealth(i),
                0.05 * static_cast<double>(m));
  }
}

TEST(Mva, MatchesBuzenExpectations) {
  const std::vector<double> u = {1.0, 0.6, 0.3, 0.85, 0.45};
  const std::uint64_t m = 60;
  const ClosedNetwork net(u, m);
  const auto mva = exact_mva(u, m);
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_NEAR(mva.expected_wealth[i], net.expected_wealth(i), 1e-6);
  }
}

TEST(Mva, SymmetricCase) {
  const std::vector<double> u(10, 1.0);
  const auto mva = exact_mva(u, 100);
  for (double l : mva.expected_wealth) EXPECT_NEAR(l, 10.0, 1e-9);
}

TEST(Mva, RejectsAllZeroDemand) {
  const std::vector<double> u = {0.0, 0.0};
  EXPECT_THROW((void)exact_mva(u, 5), util::PreconditionError);
}

TEST(ApproxEq8, IsBinomialMarginal) {
  const std::size_t n = 10;
  const std::uint64_t m = 40;
  const auto pmf = approx_marginal_eq8(n, m);
  double total = 0.0;
  double mean = 0.0;
  for (std::uint64_t b = 0; b <= m; ++b) {
    total += pmf[b];
    mean += static_cast<double>(b) * pmf[b];
  }
  EXPECT_NEAR(total, 1.0, 1e-10);
  EXPECT_NEAR(mean, static_cast<double>(m) / n, 1e-8);  // Binomial mean M/N
}

TEST(ApproxEq8, MatchesPaperFormulaPointwise) {
  // Eq. (8): Q{B=b} = ((N-1)/N)^M C(M,b) e^{-b ln(N-1)}.
  const std::size_t n = 7;
  const std::uint64_t m = 12;
  const auto pmf = approx_marginal_eq8(n, m);
  for (std::uint64_t b = 0; b <= m; ++b) {
    double binom = 1.0;
    for (std::uint64_t k = 0; k < b; ++k) {
      binom *= static_cast<double>(m - k) / static_cast<double>(k + 1);
    }
    const double paper =
        std::pow(static_cast<double>(n - 1) / n, static_cast<double>(m)) *
        binom *
        std::exp(-static_cast<double>(b) * std::log(static_cast<double>(n - 1)));
    EXPECT_NEAR(pmf[b], paper, 1e-10);
  }
}

TEST(Efficiency, Eq9MatchesFiniteAtLargeN) {
  // 1 - ((N-1)/N)^{cN} -> 1 - e^{-c}.
  const double c = 3.0;
  const std::size_t n = 4000;
  const auto m = static_cast<std::uint64_t>(c * static_cast<double>(n));
  EXPECT_NEAR(efficiency_finite(n, m), efficiency_eq9(c), 1e-3);
}

TEST(Efficiency, IncreasingInWealth) {
  EXPECT_LT(efficiency_eq9(0.5), efficiency_eq9(1.0));
  EXPECT_LT(efficiency_eq9(1.0), efficiency_eq9(5.0));
  EXPECT_NEAR(efficiency_eq9(0.0), 0.0, 1e-12);
}

// Property sweep: Buzen vs MVA across randomized utilizations and sizes.
class BuzenMvaProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(BuzenMvaProperty, ExpectationsAgree) {
  const auto [n, m] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(n) * 1000 + m);
  std::vector<double> u(static_cast<std::size_t>(n));
  for (auto& ui : u) ui = rng.uniform(0.05, 1.0);
  u[0] = 1.0;
  const ClosedNetwork net(u, m);
  const auto mva = exact_mva(u, m);
  double total = 0.0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_NEAR(mva.expected_wealth[i], net.expected_wealth(i), 1e-5);
    total += net.expected_wealth(i);
  }
  EXPECT_NEAR(total, static_cast<double>(m), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BuzenMvaProperty,
    ::testing::Values(std::make_tuple(2, std::uint64_t{10}),
                      std::make_tuple(5, std::uint64_t{25}),
                      std::make_tuple(10, std::uint64_t{100}),
                      std::make_tuple(20, std::uint64_t{300}),
                      std::make_tuple(40, std::uint64_t{50}),
                      std::make_tuple(8, std::uint64_t{1000})));

}  // namespace
}  // namespace creditflow::queueing
