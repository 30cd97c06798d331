// Tests for p2p/overlay (dynamic membership) and p2p/spending policies.
#include <gtest/gtest.h>

#include "graph_fixtures.hpp"
#include "p2p/overlay.hpp"
#include "p2p/spending.hpp"
#include "util/rng.hpp"

namespace creditflow::p2p {
namespace {

TEST(Overlay, InitFromGraph) {
  util::Rng rng(1);
  const auto g = graph::ring_lattice(10, 1);
  Overlay o(16);
  o.init_from_graph(g);
  EXPECT_EQ(o.num_active(), 10u);
  EXPECT_TRUE(o.is_active(0));
  EXPECT_FALSE(o.is_active(12));
  for (std::uint32_t p = 0; p < 10; ++p) EXPECT_EQ(o.degree(p), 2u);
}

TEST(Overlay, JoinAttachesRequestedLinks) {
  util::Rng rng(2);
  const auto g = graph::complete(6);
  Overlay o(10);
  o.init_from_graph(g);
  o.join(7, 3, rng);
  EXPECT_TRUE(o.is_active(7));
  EXPECT_EQ(o.degree(7), 3u);
  EXPECT_EQ(o.num_active(), 7u);
  // Bidirectional edges (nested queries: caller-owned scratch keeps the
  // outer list stable while the inner one is materialized).
  std::vector<std::uint32_t> nbrs;
  std::vector<std::uint32_t> back_nbrs;
  o.neighbors_into(7, nbrs);
  for (auto nbr : nbrs) {
    bool found = false;
    o.neighbors_into(nbr, back_nbrs);
    for (auto back : back_nbrs) {
      if (back == 7) found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST(Overlay, JoinCapsAtPopulation) {
  util::Rng rng(3);
  Overlay o(5);
  const auto g = graph::complete(2);
  o.init_from_graph(g);
  o.join(4, 10, rng);  // only 2 possible targets
  EXPECT_EQ(o.degree(4), 2u);
}

TEST(Overlay, FirstJoinHasNoNeighbors) {
  util::Rng rng(4);
  Overlay o(3);
  o.join(1, 5, rng);
  EXPECT_TRUE(o.is_active(1));
  EXPECT_EQ(o.degree(1), 0u);
}

TEST(Overlay, LeaveRemovesEdgesBothSides) {
  util::Rng rng(5);
  const auto g = graph::complete(4);
  Overlay o(4);
  o.init_from_graph(g);
  o.leave(2);
  EXPECT_FALSE(o.is_active(2));
  EXPECT_EQ(o.num_active(), 3u);
  EXPECT_EQ(o.degree(2), 0u);
  for (auto p : {0u, 1u, 3u}) {
    o.for_each_neighbor(p, [](std::uint32_t nbr) { EXPECT_NE(nbr, 2u); });
    EXPECT_EQ(o.degree(p), 2u);
  }
}

TEST(Overlay, RejoinAfterLeave) {
  util::Rng rng(6);
  const auto g = graph::complete(4);
  Overlay o(4);
  o.init_from_graph(g);
  o.leave(1);
  o.join(1, 2, rng);
  EXPECT_TRUE(o.is_active(1));
  EXPECT_EQ(o.degree(1), 2u);
}

TEST(Overlay, DoubleLeaveThrows) {
  util::Rng rng(7);
  const auto g = graph::complete(3);
  Overlay o(3);
  o.init_from_graph(g);
  o.leave(0);
  EXPECT_THROW(o.leave(0), util::PreconditionError);
}

TEST(Overlay, PreferentialAttachmentFavorsHighDegree) {
  util::Rng rng(8);
  // Star: node 0 has degree 9, leaves have degree 1. New joiners with one
  // link should predominantly attach to the hub.
  const auto g = graph::star(10);
  int hub_attachments = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    Overlay o(11);
    o.init_from_graph(g);
    o.join(10, 1, rng);
    o.for_each_neighbor(10, [&](std::uint32_t nbr) {
      if (nbr == 0) ++hub_attachments;
    });
  }
  // Hub weight = (9+1)/(9+1 + 9*(1+1)) ~ 0.36 ≥ uniform 0.1.
  EXPECT_GT(hub_attachments, trials / 5);
}

TEST(Overlay, ActivePeersList) {
  util::Rng rng(9);
  const auto g = graph::complete(3);
  Overlay o(5);
  o.init_from_graph(g);
  o.leave(1);
  const auto active = o.active_peers();
  const std::vector<std::uint32_t> expected{0, 2};
  EXPECT_TRUE(std::equal(active.begin(), active.end(), expected.begin(),
                         expected.end()));
}

TEST(Overlay, ActivePeersStayAscendingUnderChurn) {
  // The dense active array must mirror the ascending-id order the engine's
  // deterministic walks (seeding, snapshots, taxation) depend on, through
  // arbitrary join/leave interleavings.
  util::Rng rng(10);
  const auto g = graph::complete(6);
  Overlay o(12);
  o.init_from_graph(g);
  o.leave(3);
  o.leave(0);
  o.join(9, 2, rng);
  o.join(0, 2, rng);
  o.leave(5);
  o.join(11, 1, rng);
  const auto active = o.active_peers();
  const std::vector<std::uint32_t> expected{0, 1, 2, 4, 9, 11};
  ASSERT_EQ(active.size(), expected.size());
  EXPECT_TRUE(std::equal(active.begin(), active.end(), expected.begin()));
  for (std::uint32_t p = 0; p < 12; ++p) {
    const bool listed =
        std::find(active.begin(), active.end(), p) != active.end();
    EXPECT_EQ(o.is_active(p), listed) << "peer " << p;
  }
}

TEST(Overlay, LowestInactiveSlotTracksMembership) {
  util::Rng rng(11);
  Overlay o(130);  // spans three 64-bit bitmap words
  const auto g = graph::complete(4);
  o.init_from_graph(g);
  ASSERT_TRUE(o.lowest_inactive_slot().has_value());
  EXPECT_EQ(*o.lowest_inactive_slot(), 4u);
  o.leave(2);
  EXPECT_EQ(*o.lowest_inactive_slot(), 2u);
  o.join(2, 1, rng);
  EXPECT_EQ(*o.lowest_inactive_slot(), 4u);
  // Fill every slot: the overlay reports no free slot instead of a bogus
  // id from the bitmap's padding bits.
  for (std::uint32_t p = 4; p < 130; ++p) o.join(p, 1, rng);
  EXPECT_FALSE(o.lowest_inactive_slot().has_value());
  o.leave(129);
  EXPECT_EQ(*o.lowest_inactive_slot(), 129u);
}

TEST(Overlay, EdgePoolRecyclesCells) {
  // Leaves must return every incident cell to the free list, so sustained
  // churn cannot grow the pool footprint.
  util::Rng rng(12);
  const auto g = graph::complete(6);
  Overlay o(12);
  o.init_from_graph(g);
  const std::size_t baseline = o.edge_cells_in_use();
  EXPECT_EQ(baseline, 2u * 15u);  // K6: 15 undirected edges
  for (int round = 0; round < 50; ++round) {
    o.join(7, 3, rng);
    o.join(8, 2, rng);
    o.leave(7);
    o.leave(8);
    EXPECT_EQ(o.edge_cells_in_use(), baseline);
  }
  EXPECT_EQ(o.edges_dropped(), 0u);
}

TEST(Overlay, EdgePoolExhaustionRefusesNotGrows) {
  // A pool sized for exactly the bootstrap graph refuses further edges
  // (counted, not thrown) and resumes once a leave frees cells.
  util::Rng rng(13);
  const auto g = graph::complete(4);  // 6 undirected edges = 12 cells
  Overlay o(8, /*edge_cells=*/12);
  o.init_from_graph(g);
  EXPECT_EQ(o.edge_cells_in_use(), 12u);
  o.join(5, 2, rng);  // pool is full: join attaches nothing
  EXPECT_TRUE(o.is_active(5));
  EXPECT_EQ(o.degree(5), 0u);
  EXPECT_GT(o.edges_dropped(), 0u);
  const auto dropped = o.edges_dropped();
  o.leave(0);  // frees 6 cells
  EXPECT_TRUE(o.add_edge(5, 1));
  EXPECT_EQ(o.degree(5), 1u);
  EXPECT_EQ(o.edges_dropped(), dropped);
}

TEST(Overlay, RemovalPreservesSwapWithBackOrder) {
  // Neighbor-list order after a removal must match the retired
  // vector<vector> engine: the tail entry is moved into the removed
  // entry's position (swap-with-back), not compacted in place — every
  // RNG-consuming walk depends on this order.
  util::Rng rng(14);
  Overlay o(8);
  const auto g = graph::complete(5);
  o.init_from_graph(g);
  // Row 0 starts as [1, 2, 3, 4] (graph order). Removing 2 moves the
  // back (4) into its slot: [1, 4, 3].
  o.leave(2);
  std::vector<std::uint32_t> nbrs;
  o.neighbors_into(0, nbrs);
  EXPECT_EQ(nbrs, (std::vector<std::uint32_t>{1, 4, 3}));
  // Removing the new back (3) just pops it: [1, 4].
  o.leave(3);
  o.neighbors_into(0, nbrs);
  EXPECT_EQ(nbrs, (std::vector<std::uint32_t>{1, 4}));
  // Removing the head (1) moves 4 forward: [4].
  o.leave(1);
  o.neighbors_into(0, nbrs);
  EXPECT_EQ(nbrs, (std::vector<std::uint32_t>{4}));
}

TEST(FixedSpending, BudgetIsRateTimesRound) {
  FixedSpending policy;
  EXPECT_DOUBLE_EQ(policy.round_budget(4.0, 0, 2.0), 8.0);
  EXPECT_DOUBLE_EQ(policy.round_budget(4.0, 1000000, 2.0), 8.0);
}

TEST(DynamicSpending, MatchesPaperRule) {
  // μ_i = μ_s B/m above the threshold, μ_s below (Sec. VI-D).
  DynamicSpending policy(100.0);
  EXPECT_DOUBLE_EQ(policy.round_budget(4.0, 50, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(policy.round_budget(4.0, 100, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(policy.round_budget(4.0, 200, 1.0), 8.0);
  EXPECT_DOUBLE_EQ(policy.round_budget(4.0, 1000, 1.0), 40.0);
}

TEST(DynamicSpending, RejectsNonPositiveThreshold) {
  EXPECT_THROW(DynamicSpending(0.0), util::PreconditionError);
}

TEST(MakeSpendingPolicy, Dispatch) {
  SpendingParams fixed;
  EXPECT_EQ(make_spending_policy(fixed)->name(), "fixed");
  SpendingParams dynamic;
  dynamic.dynamic = true;
  dynamic.dynamic_threshold = 42.0;
  EXPECT_NE(make_spending_policy(dynamic)->name().find("dynamic"),
            std::string::npos);
}

}  // namespace
}  // namespace creditflow::p2p
