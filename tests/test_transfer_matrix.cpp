// Tests for queueing/transfer_matrix: stochasticity, irreducibility, and
// the graph-based builders.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph_fixtures.hpp"
#include "queueing/transfer_matrix.hpp"
#include "util/rng.hpp"

namespace creditflow::queueing {
namespace {

TEST(TransferMatrix, SetRowMergesDuplicates) {
  TransferMatrix p(3);
  p.set_row(0, {{1, 0.3}, {1, 0.2}, {2, 0.5}});
  EXPECT_DOUBLE_EQ(p.at(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(p.at(0, 2), 0.5);
  EXPECT_DOUBLE_EQ(p.row_sum(0), 1.0);
}

TEST(TransferMatrix, RejectsNegativeProbability) {
  TransferMatrix p(2);
  EXPECT_THROW(p.set_row(0, {{1, -0.1}}), util::PreconditionError);
}

TEST(TransferMatrix, RejectsOutOfRangeColumn) {
  TransferMatrix p(2);
  EXPECT_THROW(p.set_row(0, {{5, 0.5}}), util::PreconditionError);
}

TEST(TransferMatrix, StochasticChecks) {
  TransferMatrix p(2);
  p.set_row(0, {{0, 0.5}, {1, 0.5}});
  p.set_row(1, {{0, 1.0}});
  EXPECT_TRUE(p.is_stochastic());
  EXPECT_TRUE(p.is_substochastic());

  TransferMatrix q(2);
  q.set_row(0, {{0, 0.5}, {1, 0.3}});
  q.set_row(1, {{0, 1.0}});
  EXPECT_FALSE(q.is_stochastic());
  EXPECT_TRUE(q.is_substochastic());
}

TEST(TransferMatrix, IrreducibleRing) {
  TransferMatrix p(3);
  p.set_row(0, {{1, 1.0}});
  p.set_row(1, {{2, 1.0}});
  p.set_row(2, {{0, 1.0}});
  EXPECT_TRUE(p.is_irreducible());
}

TEST(TransferMatrix, ReducibleChainDetected) {
  TransferMatrix p(3);
  p.set_row(0, {{1, 1.0}});
  p.set_row(1, {{1, 1.0}});  // absorbing at 1: cannot return to 0
  p.set_row(2, {{0, 1.0}});
  EXPECT_FALSE(p.is_irreducible());
}

TEST(TransferMatrix, LeftMultiplyMatchesDense) {
  util::Rng rng(3);
  const auto g = graph::erdos_renyi(20, 0.3, rng);
  const auto p = TransferMatrix::uniform_from_graph(g, 0.1);
  std::vector<double> x(20);
  for (std::size_t i = 0; i < 20; ++i) x[i] = (i + 1) / 210.0;
  const auto sparse = p.left_multiply(x);
  const auto d = p.to_dense();
  for (std::size_t j = 0; j < 20; ++j) {
    double dense = 0.0;
    for (std::size_t i = 0; i < 20; ++i) dense += x[i] * d.at(i, j);
    EXPECT_NEAR(sparse[j], dense, 1e-14);
  }
}

TEST(TransferMatrix, UniformFromGraphRowsStochastic) {
  util::Rng rng(5);
  const auto g = graph::ring_lattice(12, 2);
  const auto p = TransferMatrix::uniform_from_graph(g, 0.2);
  EXPECT_TRUE(p.is_stochastic());
  EXPECT_DOUBLE_EQ(p.at(0, 0), 0.2);
  EXPECT_DOUBLE_EQ(p.at(0, 1), 0.2);  // (1-0.2)/4 neighbors
  EXPECT_TRUE(p.is_irreducible());
}

TEST(TransferMatrix, UniformFromGraphIsolatedNodeSelfLoops) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  const auto p = TransferMatrix::uniform_from_graph(g);
  EXPECT_DOUBLE_EQ(p.at(2, 2), 1.0);
  EXPECT_TRUE(p.is_stochastic());
}

}  // namespace
}  // namespace creditflow::queueing
