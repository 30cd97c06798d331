// Tests for p2p/overlay (dynamic membership) and p2p/spending policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "graph/generators.hpp"
#include "graph_fixtures.hpp"
#include "p2p/overlay.hpp"
#include "p2p/spending.hpp"
#include "util/rng.hpp"

namespace creditflow::p2p {
namespace {

/// One overlay row, in row order. Every test reads rows through here.
std::vector<std::uint32_t> row_of(const Overlay& o, std::uint32_t peer) {
  const auto row = o.neighbors(peer);
  return {row.begin(), row.end()};
}

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
  // Bidirectional edges.
  for (auto nbr : row_of(o, 7)) {
    const auto back = row_of(o, nbr);
    EXPECT_NE(std::find(back.begin(), back.end(), 7u), back.end());
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
    for (auto nbr : row_of(o, p)) EXPECT_NE(nbr, 2u);
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
    for (auto nbr : row_of(o, 10)) {
      if (nbr == 0) ++hub_attachments;
    }
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
  // Leaves must give back every incident cell, so sustained churn cannot
  // grow the cells in use.
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
  EXPECT_EQ(row_of(o, 0), (std::vector<std::uint32_t>{1, 4, 3}));
  // Removing the new back (3) just pops it: [1, 4].
  o.leave(3);
  EXPECT_EQ(row_of(o, 0), (std::vector<std::uint32_t>{1, 4}));
  // Removing the head (1) moves 4 forward: [4].
  o.leave(1);
  EXPECT_EQ(row_of(o, 0), (std::vector<std::uint32_t>{4}));
}

/// The retired vector<vector> engine, kept as the oracle for the overlay's
/// rows: appends go to the back, a removal moves the back into the removed
/// entry's place, and an edge is refused once in_use + 2 > capacity. join()
/// draws each target by the definition Overlay::join's Fenwick tree must
/// reproduce draw for draw: Rng::discrete over degree+1 weights, a linked
/// target's weight zeroed.
struct VectorEngine {
  std::vector<std::vector<std::uint32_t>> rows;
  std::vector<bool> active;
  std::size_t capacity = 0;
  std::size_t in_use = 0;
  std::uint64_t dropped = 0;

  VectorEngine(std::size_t max_peers, std::size_t cells)
      : rows(max_peers), active(max_peers, false), capacity(cells) {}

  void init_from_graph(const graph::Graph& g) {
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      active[u] = true;
      rows[u].assign(g.neighbors(u).begin(), g.neighbors(u).end());
      in_use += rows[u].size();
    }
  }

  [[nodiscard]] std::vector<std::uint32_t> active_ids() const {
    std::vector<std::uint32_t> ids;
    for (std::uint32_t p = 0; p < active.size(); ++p) {
      if (active[p]) ids.push_back(p);
    }
    return ids;
  }

  [[nodiscard]] std::optional<std::uint32_t> lowest_inactive_slot() const {
    for (std::uint32_t p = 0; p < active.size(); ++p) {
      if (!active[p]) return p;
    }
    return std::nullopt;
  }

  bool add_edge(std::uint32_t a, std::uint32_t b) {
    if (a == b) return false;
    if (std::find(rows[a].begin(), rows[a].end(), b) != rows[a].end()) {
      return false;
    }
    if (in_use + 2 > capacity) {
      ++dropped;
      return false;
    }
    rows[a].push_back(b);
    rows[b].push_back(a);
    in_use += 2;
    return true;
  }

  void remove_directed(std::uint32_t from, std::uint32_t to) {
    auto& row = rows[from];
    const auto it = std::find(row.begin(), row.end(), to);
    ASSERT_NE(it, row.end());
    *it = row.back();
    row.pop_back();
    --in_use;
  }

  void leave(std::uint32_t peer) {
    for (const auto nbr : rows[peer]) remove_directed(nbr, peer);
    in_use -= rows[peer].size();
    rows[peer].clear();
    active[peer] = false;
  }

  void join(std::uint32_t peer, std::size_t target_links, util::Rng& rng) {
    active[peer] = true;
    const auto candidates = active_ids();
    if (candidates.size() == 1) return;
    std::vector<double> weights;
    for (const auto c : candidates) {
      weights.push_back(c == peer ? 0.0
                                  : static_cast<double>(rows[c].size()) + 1.0);
    }
    const std::size_t want = std::min(target_links, candidates.size() - 1);
    std::size_t added = 0;
    std::size_t attempts = 0;
    while (added < want && attempts < 20 * want + 40) {
      ++attempts;
      const std::size_t idx = rng.discrete(weights);
      if (add_edge(peer, candidates[idx])) {
        ++added;
        weights[idx] = 0.0;
      }
    }
  }
};

void expect_same_state(const Overlay& o, const VectorEngine& m, int step) {
  for (std::uint32_t p = 0; p < m.rows.size(); ++p) {
    ASSERT_EQ(o.is_active(p), static_cast<bool>(m.active[p]))
        << "step " << step << " peer " << p;
    ASSERT_EQ(o.degree(p), m.rows[p].size())
        << "step " << step << " peer " << p;
    if (m.active[p]) {
      ASSERT_EQ(row_of(o, p), m.rows[p]) << "step " << step << " peer " << p;
    }
  }
  ASSERT_EQ(o.edge_cells_in_use(), m.in_use) << "step " << step;
  ASSERT_EQ(o.edges_dropped(), m.dropped) << "step " << step;
  const auto active = o.active_peers();
  ASSERT_EQ(std::vector<std::uint32_t>(active.begin(), active.end()),
            m.active_ids())
      << "step " << step;
  ASSERT_EQ(o.lowest_inactive_slot(), m.lowest_inactive_slot())
      << "step " << step;
}

struct ChurnOutcome {
  std::size_t high_water = 0;  ///< most cells in use at once
  std::uint64_t dropped = 0;   ///< edges refused for want of cells
};

/// The overlay a churn run starts from and how hard it churns.
struct ChurnShape {
  std::size_t slots = 96;
  std::size_t bootstrap_peers = 48;
  double mean_degree = 6.0;
  std::size_t max_join_links = 10;
  int steps = 2500;
};

/// Drives a seeded mix of join, leave and add_edge against both the
/// overlay and the vector engine, comparing after every step. `edge_cells`
/// sizes the overlay's pool (0 = the default).
ChurnOutcome churn_against_vector_engine(std::size_t edge_cells,
                                         const ChurnShape& shape = {}) {
  util::Rng graph_rng(21);
  graph::ScaleFreeParams sf;
  sf.target_mean_degree = shape.mean_degree;
  const auto g = graph::scale_free(shape.bootstrap_peers, sf, graph_rng);

  Overlay o(shape.slots, edge_cells);
  VectorEngine m(shape.slots, o.edge_cell_capacity());
  o.init_from_graph(g);
  m.init_from_graph(g);
  util::Rng overlay_rng(22);
  util::Rng model_rng(22);
  util::Rng driver(23);
  ChurnOutcome out{m.in_use, 0};
  expect_same_state(o, m, -1);
  for (int step = 0; step < shape.steps; ++step) {
    const double r = driver.uniform();
    const auto active = m.active_ids();
    if (r < 0.45 && active.size() < shape.slots) {
      // Mostly the lowest free slot, as a protocol arrival takes; now and
      // then another free slot, so rows sit in varied places.
      std::uint32_t slot = *m.lowest_inactive_slot();
      if (driver.bernoulli(0.3)) {
        do {
          slot = static_cast<std::uint32_t>(driver.uniform_index(shape.slots));
        } while (m.active[slot]);
      }
      const std::size_t links =
          1 + driver.uniform_index(shape.max_join_links);
      o.join(slot, links, overlay_rng);
      m.join(slot, links, model_rng);
    } else if (r < 0.8 && active.size() > 1) {
      const auto peer = active[driver.uniform_index(active.size())];
      o.leave(peer);
      m.leave(peer);
    } else if (active.size() > 1) {
      const auto a = active[driver.uniform_index(active.size())];
      const auto b = active[driver.uniform_index(active.size())];
      EXPECT_EQ(o.add_edge(a, b), m.add_edge(a, b)) << "step " << step;
    }
    out.high_water = std::max(out.high_water, m.in_use);
    expect_same_state(o, m, step);
    if (::testing::Test::HasFatalFailure()) return out;
  }
  EXPECT_EQ(overlay_rng.next_u64(), model_rng.next_u64())
      << "join consumed a different number of draws";
  out.dropped = m.dropped;
  return out;
}

TEST(Overlay, RowsMatchVectorEngineUnderChurn) {
  // Every RNG-consuming walk over a row (candidate masks, seller picks,
  // join weights) depends on the row order, so the rows must match the
  // vector engine entry for entry through any join/leave/add_edge mix.
  const auto roomy = churn_against_vector_engine(0);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_EQ(roomy.dropped, 0u);
  // A pool a few cells above the live high-water mark: nothing is refused,
  // but the rows' storage runs full again and again.
  const auto tight = churn_against_vector_engine(roomy.high_water + 6);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_EQ(tight.high_water, roomy.high_water);
  EXPECT_EQ(tight.dropped, 0u);
  // A pool below the high-water mark: joins and add_edge are refused, and
  // the refusals must fall exactly where the vector engine's do. Cells in
  // use are always even, so an even pool also tests the last edge that
  // fits exactly.
  const auto starved =
      churn_against_vector_engine(roomy.high_water * 3 / 4 / 2 * 2);
  EXPECT_GT(starved.dropped, 0u);
}

TEST(Overlay, JoinDrawsMatchDiscrete) {
  // The vector engine draws each join's targets by their definition: one
  // Rng::discrete over the degree+1 weights per attempt, a linked target's
  // weight zeroed. On a hub overlay with joins of up to 70 links, one join
  // draws many targets from the same weights.
  ChurnShape hub;
  hub.slots = 340;
  hub.bootstrap_peers = 300;
  hub.mean_degree = 40.0;
  hub.max_join_links = 70;
  hub.steps = 400;
  const auto outcome = churn_against_vector_engine(hub.slots * 256, hub);
  EXPECT_EQ(outcome.dropped, 0u);
}

TEST(FixedSpending, BudgetIsRateTimesRound) {
  // The threshold is read only when the rule is dynamic.
  SpendingParams fixed;
  fixed.dynamic_threshold = 1.0;
  EXPECT_DOUBLE_EQ(round_budget(fixed, 4.0, 0, 2.0), 8.0);
  EXPECT_DOUBLE_EQ(round_budget(fixed, 4.0, 1000000, 2.0), 8.0);
}

TEST(DynamicSpending, MatchesPaperRule) {
  // μ_i = μ_s B/m above the threshold, μ_s below (Sec. VI-D).
  SpendingParams dynamic;
  dynamic.dynamic = true;
  dynamic.dynamic_threshold = 100.0;
  EXPECT_DOUBLE_EQ(round_budget(dynamic, 4.0, 50, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(round_budget(dynamic, 4.0, 100, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(round_budget(dynamic, 4.0, 200, 1.0), 8.0);
  EXPECT_DOUBLE_EQ(round_budget(dynamic, 4.0, 1000, 1.0), 40.0);
}

}  // namespace
}  // namespace creditflow::p2p
