// Tests for graph: adjacency structure, connectivity, and the overlay
// topology generators (including the paper's scale-free shape).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string_view>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph_fixtures.hpp"
#include "util/rng.hpp"

namespace creditflow::graph {
namespace {

/// Fold one value's bytes into a running FNV-1a hash.
template <typename T>
std::uint64_t mix(std::uint64_t h, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  return util::fnv1a64(std::string_view(bytes, sizeof(T)), h);
}

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

// Under P(d) ∝ d^-alpha both lower cutoffs share every degree above dmin,
// so the drawn counts on [dmin + 1, 60] follow d^-alpha whichever cutoff a
// draw used. A χ² goodness-of-fit test checks that under a narrow cap (CDF
// range about 50) and a wide one (about 5 000).
TEST(Generators, DegreeSequenceFollowsThePowerLaw) {
  constexpr std::uint64_t kTop = 60;
  for (const std::uint64_t cap : {std::uint64_t{60}, std::uint64_t{5000}}) {
    util::Rng rng(5);
    ScaleFreeParams params;  // exponent 2.5, mean 20
    params.max_degree = cap;
    const auto degrees = power_law_degree_sequence(200000, params, rng);
    const std::uint64_t dmin =
        *std::min_element(degrees.begin(), degrees.end());
    ASSERT_LT(dmin + 2, kTop);
    std::vector<double> counts(kTop + 1, 0.0);
    for (const std::uint64_t d : degrees) {
      if (d > dmin && d <= kTop) ++counts[d];
    }
    double drawn = 0.0;
    double weight = 0.0;
    for (std::uint64_t d = dmin + 1; d <= kTop; ++d) {
      drawn += counts[d];
      weight += std::pow(static_cast<double>(d), -params.exponent);
    }
    double chi2 = 0.0;
    for (std::uint64_t d = dmin + 1; d <= kTop; ++d) {
      const double expected =
          drawn * std::pow(static_cast<double>(d), -params.exponent) / weight;
      chi2 += (counts[d] - expected) * (counts[d] - expected) / expected;
    }
    // The 99.9% point of χ² with k degrees of freedom, by Wilson–Hilferty:
    // k (1 - c + z √c)³ with c = 2 / 9k and z = 3.0902, the normal 99.9%
    // point. Within 0.2% of the exact quantile at k ≈ 50.
    const auto k = static_cast<double>(kTop - dmin - 1);
    const double c = 2.0 / (9.0 * k);
    const double limit = k * std::pow(1.0 - c + 3.0902 * std::sqrt(c), 3.0);
    EXPECT_LT(chi2, limit) << "max_degree " << cap << ", dmin " << dmin
                           << ", " << k << " degrees of freedom";
  }
}

// Every market's overlay comes from these draws, and the goldens reach
// them only at the default parameters and only through market outputs. Each
// row hashes its degree sequence, the RNG's next word after it (so an extra
// or a missing draw shows) and every adjacency row of `scale_free`. Rows:
// the book-adv and fig11 sizes, a steeper and a shallower law, a cap of 4
// (about a quarter of the draws have lower cutoff == cap and take no
// uniform) and a cap of 4102 (CDF range 4096).
TEST(Generators, BootstrapDrawsArePinned) {
  struct Row {
    std::size_t n;
    double exponent;
    double mean;
    std::uint64_t max_degree;
    std::uint64_t hash;
  };
  const Row rows[] = {
      {2000, 2.5, 20.0, 0, 0xa429871ed87aba61ULL},
      {500, 2.5, 20.0, 0, 0x431055ced3fa1dd7ULL},
      {3000, 2.1, 8.0, 0, 0x6764fa1aca7c7adcULL},
      {40, 3.0, 2.0, 0, 0x182078a41d268990ULL},
      {50, 2.5, 3.5, 4, 0x714b45b6df8222d7ULL},
      {6000, 2.5, 20.0, 4102, 0x20cdc9bc698abff7ULL},
  };
  for (const Row& row : rows) {
    ScaleFreeParams params;
    params.exponent = row.exponent;
    params.target_mean_degree = row.mean;
    params.max_degree = row.max_degree;
    std::uint64_t h = util::fnv1a64("");
    util::Rng rng(2012);
    for (const std::uint64_t d : power_law_degree_sequence(row.n, params, rng))
      h = mix(h, d);
    h = mix(h, rng.next_u64());
    util::Rng graph_rng(2012);
    const Graph g = scale_free(row.n, params, graph_rng);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const auto neighbors = g.neighbors(u);
      h = mix(h, neighbors.size());
      for (const NodeId v : neighbors) h = mix(h, v);
    }
    EXPECT_EQ(h, row.hash) << "n " << row.n << ", exponent " << row.exponent
                           << ", mean " << row.mean << ", max_degree "
                           << row.max_degree << ": got 0x" << std::hex << h;
  }
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
