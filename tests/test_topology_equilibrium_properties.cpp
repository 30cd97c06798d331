// Parameterized property sweep across overlay topologies: on every
// connected topology, uniform trading preferences admit a positive
// stationary credit flow (Lemma 1), the CTMC conserves credits, and the
// stationary flow matches the degree profile.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "graph/generators.hpp"
#include "graph_fixtures.hpp"
#include "queueing/ctmc.hpp"
#include "queueing/equilibrium.hpp"
#include "queueing/transfer_matrix.hpp"
#include "util/rng.hpp"

namespace creditflow::queueing {
namespace {

enum class Topology { kScaleFree, kErdosRenyi, kRing, kComplete, kStar };

struct SweepPoint {
  Topology topology;
  std::size_t n;
};

graph::Graph make_topology(const SweepPoint& p, util::Rng& rng) {
  switch (p.topology) {
    case Topology::kScaleFree: {
      graph::ScaleFreeParams params;
      return graph::scale_free(p.n, params, rng);
    }
    case Topology::kErdosRenyi: {
      auto g = graph::erdos_renyi(p.n, 4.0 / static_cast<double>(p.n), rng);
      graph::make_connected(g, rng);
      return g;
    }
    case Topology::kRing:
      return graph::ring_lattice(p.n, 2);
    case Topology::kComplete:
      return graph::complete(p.n);
    case Topology::kStar:
      return graph::star(p.n);
  }
  throw std::logic_error("unreachable");
}

class TopologyProperty : public ::testing::TestWithParam<SweepPoint> {};

TEST_P(TopologyProperty, Lemma1PositiveStationaryFlow) {
  util::Rng rng(99);
  const auto g = make_topology(GetParam(), rng);
  ASSERT_TRUE(graph::is_connected(g));
  const auto p = TransferMatrix::uniform_from_graph(g);
  ASSERT_TRUE(p.is_stochastic(1e-9));
  ASSERT_TRUE(p.is_irreducible());

  const auto eq = solve_equilibrium(p);
  EXPECT_TRUE(eq.converged);
  EXPECT_LT(eq.residual, 1e-7);
  const double min_l =
      *std::min_element(eq.lambda.begin(), eq.lambda.end());
  EXPECT_GT(min_l, 0.0);

  // Random-walk stationary distribution is proportional to degree.
  double total_degree = 0.0;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u)
    total_degree += static_cast<double>(g.degree(u));
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_NEAR(eq.lambda[u],
                static_cast<double>(g.degree(u)) / total_degree, 5e-5);
  }
}

TEST_P(TopologyProperty, CtmcConservesCreditsOnTopology) {
  util::Rng rng(101);
  const auto g = make_topology(GetParam(), rng);
  const auto p = TransferMatrix::uniform_from_graph(g);
  ClosedCtmcConfig cfg;
  cfg.service_rates.assign(g.num_nodes(), 1.0);
  cfg.initial_credits.assign(g.num_nodes(), 5);
  cfg.horizon = 30.0;
  cfg.snapshot_interval = 10.0;
  cfg.seed = 3;
  ClosedCtmcSimulator sim(p, cfg);
  const auto expected = 5u * g.num_nodes();
  sim.run([&](const CtmcSnapshot& snap) {
    const auto total = std::accumulate(snap.credits.begin(),
                                       snap.credits.end(), std::uint64_t{0});
    EXPECT_EQ(total, expected);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, TopologyProperty,
    ::testing::Values(SweepPoint{Topology::kScaleFree, 200},
                      SweepPoint{Topology::kErdosRenyi, 150},
                      SweepPoint{Topology::kRing, 64},
                      SweepPoint{Topology::kComplete, 32},
                      SweepPoint{Topology::kStar, 40}));

// Utilization property over random rate assignments: Eq. (2) output is in
// (0, 1] with max exactly 1, and scale-invariant in λ.
class UtilizationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UtilizationProperty, NormalizationInvariants) {
  util::Rng rng(GetParam());
  const std::size_t n = 50;
  std::vector<double> lambda(n), mu(n);
  for (std::size_t i = 0; i < n; ++i) {
    lambda[i] = rng.uniform(0.01, 5.0);
    mu[i] = rng.uniform(0.5, 10.0);
  }
  const auto u = normalized_utilization(lambda, mu);
  const double max_u = *std::max_element(u.begin(), u.end());
  EXPECT_NEAR(max_u, 1.0, 1e-12);
  for (double ui : u) {
    EXPECT_GT(ui, 0.0);
    EXPECT_LE(ui, 1.0 + 1e-12);
  }
  // Scaling λ leaves u unchanged.
  auto scaled = lambda;
  for (auto& l : scaled) l *= 7.3;
  const auto u2 = normalized_utilization(scaled, mu);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(u[i], u2[i], 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UtilizationProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace creditflow::queueing
