// Tests for queueing/equilibrium: Lemma 1 of the paper — a positive
// stationary flow λP = λ exists for every irreducible stochastic P, and both
// solvers find it.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.hpp"
#include "queueing/equilibrium.hpp"
#include "util/rng.hpp"

namespace creditflow::queueing {
namespace {

TransferMatrix two_state() {
  TransferMatrix p(2);
  p.set_row(0, {{0, 0.9}, {1, 0.1}});
  p.set_row(1, {{0, 0.5}, {1, 0.5}});
  return p;
}

TEST(Equilibrium, DirectSolveKnownChain) {
  const auto r = solve_equilibrium_direct(two_state());
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.lambda[0], 5.0 / 6.0, 1e-10);
  EXPECT_NEAR(r.lambda[1], 1.0 / 6.0, 1e-10);
  EXPECT_LT(r.residual, 1e-10);
}

TEST(Equilibrium, PowerIterationMatchesDirect) {
  const auto direct = solve_equilibrium_direct(two_state());
  const auto power = solve_equilibrium_power(two_state());
  EXPECT_TRUE(power.converged);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(power.lambda[i], direct.lambda[i], 1e-8);
  }
}

TEST(Equilibrium, PeriodicChainHandledByDamping) {
  // Pure 2-cycle: undamped iteration oscillates; damping converges to
  // the stationary (0.5, 0.5).
  TransferMatrix p(2);
  p.set_row(0, {{1, 1.0}});
  p.set_row(1, {{0, 1.0}});
  const auto r = solve_equilibrium_power(p);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.lambda[0], 0.5, 1e-8);
  EXPECT_NEAR(r.lambda[1], 0.5, 1e-8);
}

TEST(Equilibrium, PositiveSolutionOnScaleFreeOverlay) {
  // Lemma 1: on any connected overlay with uniform trading preferences, a
  // strictly positive stationary flow exists.
  util::Rng rng(42);
  graph::ScaleFreeParams params;
  const auto g = graph::scale_free(300, params, rng);
  const auto p = TransferMatrix::uniform_from_graph(g);
  const auto r = solve_equilibrium(p);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.residual, 1e-8);
  const double min_l = *std::min_element(r.lambda.begin(), r.lambda.end());
  EXPECT_GT(min_l, 0.0);
  double sum = 0.0;
  for (double l : r.lambda) sum += l;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Equilibrium, UniformRoutingStationaryProportionalToDegree) {
  // For a random walk on an undirected graph, λ_i ∝ degree_i — the precise
  // reason "connection-affluent" peers earn more under uniform routing.
  util::Rng rng(43);
  const auto g = graph::erdos_renyi(60, 0.2, rng);
  const auto p = TransferMatrix::uniform_from_graph(g);
  const auto r = solve_equilibrium(p);
  double total_degree = 0.0;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u)
    total_degree += static_cast<double>(g.degree(u));
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    if (g.degree(u) == 0) continue;
    EXPECT_NEAR(r.lambda[u],
                static_cast<double>(g.degree(u)) / total_degree, 1e-6);
  }
}

TEST(Equilibrium, ResidualDetectsNonSolution) {
  const auto p = two_state();
  const std::vector<double> wrong = {0.5, 0.5};
  EXPECT_GT(equilibrium_residual(p, wrong), 0.1);
}

TEST(Equilibrium, LargeNetworkUsesPowerPath) {
  util::Rng rng(44);
  graph::ScaleFreeParams params;
  const auto g = graph::scale_free(600, params, rng);
  const auto p = TransferMatrix::uniform_from_graph(g, 0.05);
  const auto r = solve_equilibrium(p);
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.iterations, 0u);  // iterative path taken for n > 512
  EXPECT_LT(r.residual, 1e-7);
}

TEST(NormalizedUtilization, MatchesEq2) {
  const std::vector<double> lambda = {1.0, 2.0, 4.0};
  const std::vector<double> mu = {2.0, 2.0, 4.0};
  const auto u = normalized_utilization(lambda, mu);
  // ratios: 0.5, 1.0, 1.0 -> max 1.0
  EXPECT_DOUBLE_EQ(u[0], 0.5);
  EXPECT_DOUBLE_EQ(u[1], 1.0);
  EXPECT_DOUBLE_EQ(u[2], 1.0);
}

TEST(NormalizedUtilization, AlwaysContainsAOne) {
  const std::vector<double> lambda = {0.1, 0.01};
  const std::vector<double> mu = {1.0, 1.0};
  const auto u = normalized_utilization(lambda, mu);
  EXPECT_DOUBLE_EQ(*std::max_element(u.begin(), u.end()), 1.0);
}

TEST(NormalizedUtilization, RejectsBadInput) {
  const std::vector<double> lambda = {1.0};
  const std::vector<double> mu_zero = {0.0};
  EXPECT_THROW((void)normalized_utilization(lambda, mu_zero),
               util::PreconditionError);
  const std::vector<double> zero = {0.0};
  const std::vector<double> mu = {1.0};
  EXPECT_THROW((void)normalized_utilization(zero, mu),
               util::PreconditionError);
}

}  // namespace
}  // namespace creditflow::queueing
