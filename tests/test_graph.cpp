// Tests for graph: adjacency structure, connectivity, and the overlay
// topology generators (including the paper's scale-free shape).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph_fixtures.hpp"
#include "util/rng.hpp"

namespace creditflow::graph {
namespace {

TEST(Graph, AddEdgeBasics) {
  Graph g(4);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(0, 1));  // duplicate
  EXPECT_FALSE(g.add_edge(1, 0));  // duplicate reversed
  EXPECT_FALSE(g.add_edge(2, 2));  // self loop
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(3), 0u);
}

TEST(Graph, MeanDegree) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_DOUBLE_EQ(g.mean_degree(), 1.0);
}

TEST(Graph, NeighborsSpan) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  const auto n = g.neighbors(0);
  EXPECT_EQ(n.size(), 2u);
}

TEST(Connectivity, DisconnectedDetected) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(is_connected(g));
  const auto labels = connected_components(g);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[2], labels[3]);
  EXPECT_NE(labels[0], labels[2]);
}

TEST(Connectivity, ConnectedGraph) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, ErdosRenyiDensity) {
  util::Rng rng(1);
  const auto g = erdos_renyi(200, 0.1, rng);
  const double expected = 0.1 * 199.0;
  EXPECT_NEAR(g.mean_degree(), expected, expected * 0.15);
}

TEST(Generators, RingLattice) {
  const auto g = ring_lattice(10, 2);
  EXPECT_TRUE(is_connected(g));
  for (NodeId u = 0; u < 10; ++u) EXPECT_EQ(g.degree(u), 4u);
}

TEST(Generators, CompleteGraph) {
  const auto g = complete(6);
  EXPECT_EQ(g.num_edges(), 15u);
  for (NodeId u = 0; u < 6; ++u) EXPECT_EQ(g.degree(u), 5u);
}

TEST(Generators, StarGraph) {
  const auto g = star(5);
  EXPECT_EQ(g.degree(0), 4u);
  for (NodeId u = 1; u < 5; ++u) EXPECT_EQ(g.degree(u), 1u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, PowerLawDegreeSequenceMeanTargeted) {
  util::Rng rng(7);
  ScaleFreeParams params;
  params.exponent = 2.5;
  params.target_mean_degree = 20.0;
  const auto degrees = power_law_degree_sequence(2000, params, rng);
  const double mean =
      static_cast<double>(std::accumulate(degrees.begin(), degrees.end(),
                                          std::uint64_t{0})) /
      static_cast<double>(degrees.size());
  EXPECT_NEAR(mean, 20.0, 2.0);
  const auto sum =
      std::accumulate(degrees.begin(), degrees.end(), std::uint64_t{0});
  EXPECT_EQ(sum % 2, 0u);
}

TEST(Generators, ScaleFreeIsConnectedWithTargetMean) {
  util::Rng rng(11);
  ScaleFreeParams params;  // paper defaults: k=2.5, mean 20
  const auto g = scale_free(1000, params, rng);
  EXPECT_TRUE(is_connected(g));
  EXPECT_NEAR(g.mean_degree(), 20.0, 3.0);
}

TEST(Generators, ScaleFreeHasHeavyTail) {
  util::Rng rng(13);
  ScaleFreeParams params;
  const auto g = scale_free(1500, params, rng);
  double max = 0.0, sum = 0.0, sum_sq = 0.0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto d = static_cast<double>(g.degree(u));
    max = std::max(max, d);
    sum += d;
    sum_sq += d * d;
  }
  const double n = static_cast<double>(g.num_nodes());
  const double mean = sum / n;
  const double cv = std::sqrt(sum_sq / n - mean * mean) / mean;
  // Heavy tail: max degree far above the mean, widely spread degrees.
  EXPECT_GT(max, 3.0 * mean);
  EXPECT_GT(cv, 0.5);
}

TEST(Generators, MakeConnectedLinksComponents) {
  util::Rng rng(19);
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.add_edge(4, 5);
  make_connected(g, rng);
  EXPECT_TRUE(is_connected(g));
}

}  // namespace
}  // namespace creditflow::graph
