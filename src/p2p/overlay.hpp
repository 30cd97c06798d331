// CreditFlow: dynamic overlay management.
//
// The static case wraps a generated scale-free graph. Under churn, joining
// peers attach preferentially by degree (preserving the scale-free shape, as
// in the measurement study the paper builds on) and departures remove all
// incident edges.
//
// Membership is tracked three ways, kept in sync by join/leave:
//  * a word-packed activity bitmap (O(1) is_active, amortized-O(1) lowest
//    free slot via a word cursor hint),
//  * a dense active-peer array in ascending id order, handed out as a span
//    so the round loop iterates the population without copying it, and
//  * the adjacency rows themselves.
// The dense array is kept *ordered* (binary-search insert/erase, O(active)
// memmove per membership change) rather than swap-remove compacted: churn
// events are thousands of times rarer than active-set iterations, and the
// ascending order is what keeps every RNG-consuming walk over the
// population — seeding, taxation, snapshots — bit-identical to the
// pre-span engine that rebuilt the sorted vector on every call.
//
// Adjacency lives in one fixed ARENA of 4-byte neighbor ids sized at
// construction, in which each row is a contiguous segment {offset, degree,
// capacity}. The rows reproduce the retired vector<vector> engine's order
// EXACTLY: an append writes at the row's tail, and a removal moves the
// row's last entry into the removed entry's place (swap-with-back + pop).
// Every RNG-consuming walk over a neighbor list — candidate masks, seller
// picks, join weights — sees the same sequence as before, bit for bit.
//
// A full row moves to the arena's top with twice its capacity, leaving a
// hole. When the top reaches the arena's end, the arena packs every row
// down in offset order (holes and spare capacity go) and rotates the
// growing row to the end, so any edge the cell count admits fits. Packing
// sorts slot ids in a buffer reserved at construction: joins and leaves
// allocate nothing, and the million-peer market's churn path is
// heap-silent end to end.
//
// neighbors() hands out a row in place as a span; any join(), leave(),
// add_edge() or init_from_graph() invalidates it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace creditflow::p2p {

/// Slot-addressed adjacency with join/leave support.
class Overlay {
 public:
  /// Create with a fixed slot capacity; all slots start inactive.
  /// `edge_cells` fixes the arena size (directed cells: one undirected edge
  /// consumes two; at most 2^32 - 1); 0 picks a generous default for
  /// paper-scale overlays. The arena never grows — when it is full
  /// add_edge() refuses the edge (logged once, counted) instead of
  /// allocating.
  explicit Overlay(std::size_t max_peers, std::size_t edge_cells = 0);

  /// Activate slots 0..g.num_nodes()-1 with the edges of `g`.
  void init_from_graph(const graph::Graph& g);

  [[nodiscard]] std::size_t capacity() const { return rows_.size(); }
  [[nodiscard]] std::size_t num_active() const { return active_list_.size(); }
  [[nodiscard]] bool is_active(std::uint32_t peer) const;
  [[nodiscard]] std::size_t degree(std::uint32_t peer) const {
    CF_EXPECTS(peer < rows_.size());
    return rows_[peer].degree;
  }

  /// The peer's neighbors in row order (the retired vector engine's
  /// iteration order), read in place.
  ///
  /// LIFETIME: the span aliases the arena; any join(), leave(), add_edge()
  /// or init_from_graph() — and destruction — invalidates it.
  [[nodiscard]] std::span<const std::uint32_t> neighbors(
      std::uint32_t peer) const {
    CF_EXPECTS(peer < rows_.size());
    const Row& row = rows_[peer];
    return {cells_.data() + row.offset, row.degree};
  }

  /// Active peer ids in ascending order, O(1), no copy.
  ///
  /// LIFETIME: the span aliases the overlay's internal dense array; any
  /// join(), leave(), or init_from_graph() — and destruction — invalidates
  /// it. Consume it (or copy it) before the membership can change; never
  /// hold one across a simulated event boundary.
  [[nodiscard]] std::span<const std::uint32_t> active_peers() const {
    return active_list_;
  }

  /// Lowest-numbered inactive slot, or nullopt when the overlay is full.
  /// Amortized O(1) under churn: the scan starts from a word cursor below
  /// which every word is known-full (leaves rewind it, scans advance it),
  /// instead of re-walking all capacity/64 words from zero on every
  /// arrival. The result is the exact lowest-index free slot — identical
  /// to the from-zero scan, bit for bit.
  [[nodiscard]] std::optional<std::uint32_t> lowest_inactive_slot() const;

  /// Activate a slot and attach `target_links` edges by preferential
  /// attachment over current degrees (degree+1 weighting so isolated peers
  /// remain reachable). Requires the slot to be inactive. Each attempt is
  /// one uniform() draw, read from a Fenwick tree over the active peers'
  /// weights in ascending id order (the joiner's is 0): the index
  /// Rng::discrete would return over the same weights, in O(log n) instead
  /// of two passes. A linked target's weight leaves the tree.
  void join(std::uint32_t peer, std::size_t target_links, util::Rng& rng);

  /// Deactivate a slot, removing all incident edges.
  void leave(std::uint32_t peer);

  /// Add one undirected edge between active peers; false on duplicates/self
  /// (and, loudly, when the arena has fewer than two free cells).
  bool add_edge(std::uint32_t a, std::uint32_t b);

  /// Arena introspection (tests and capacity planning): cells are directed
  /// neighbor entries, and one undirected edge takes two.
  [[nodiscard]] std::size_t edge_cell_capacity() const { return cells_.size(); }
  [[nodiscard]] std::size_t edge_cells_in_use() const { return cells_in_use_; }
  /// Edges refused because the arena was full.
  [[nodiscard]] std::uint64_t edges_dropped() const { return edges_dropped_; }

 private:
  /// One row's segment of the arena: cells [offset, offset + degree) hold
  /// the neighbors, and the row may grow in place up to `capacity`.
  struct Row {
    std::uint32_t offset = 0;
    std::uint32_t degree = 0;
    std::uint32_t capacity = 0;
  };

  void remove_directed(std::uint32_t from, std::uint32_t to);
  void set_active_bit(std::uint32_t peer, bool value);
  /// Ordered insert into / erase from the dense active array.
  void list_insert(std::uint32_t peer);
  void list_erase(std::uint32_t peer);
  /// Append `to` at the tail of `from`'s row (vector push_back order).
  void row_push_back(std::uint32_t from, std::uint32_t to);
  /// Pack every row down tight in offset order, then move `grow` to the
  /// end with all the cells left after it.
  void pack(std::uint32_t grow);

  std::vector<std::uint32_t> cells_;          ///< the arena, fixed size
  std::uint32_t top_ = 0;                     ///< cells at and above are free
  std::size_t cells_in_use_ = 0;
  std::uint64_t edges_dropped_ = 0;
  std::vector<Row> rows_;                     ///< per-slot segment
  std::vector<std::uint32_t> pack_order_;     ///< scratch for pack()
  std::vector<std::uint64_t> active_words_;   ///< ceil(capacity/64) words
  std::vector<std::uint32_t> active_list_;    ///< active ids, ascending
  std::vector<std::uint64_t> join_tree_;      ///< join()'s Fenwick tree
  /// Free-slot scan cursor: every word below it is fully active. Mutable
  /// because the scan (const) advances it past words it proves full.
  mutable std::size_t free_word_hint_ = 0;
};

}  // namespace creditflow::p2p
