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
// Adjacency lives in a fixed-capacity EDGE POOL sized at construction: one
// pool of 8-byte {neighbor, next} cells shared by every row, with freed
// cells recycled through a free list. Joins and leaves therefore allocate
// nothing — the million-peer market's churn path is heap-silent end to end.
// Rows are singly-linked chains that reproduce the retired
// vector<vector> engine's order EXACTLY: appends go to the tail, and
// removals copy the tail's value over the removed cell before freeing the
// tail (the linked-list rendering of swap-with-back + pop). Every
// RNG-consuming walk over a neighbor list — candidate masks, seller picks,
// join weights — sees the same sequence as before, bit for bit.
//
// Because rows are chains, there is no contiguous span to hand out;
// neighbors are consumed through for_each_neighbor() (zero-copy visit) or
// neighbors_into() (materialize into a caller-owned scratch buffer whose
// lifetime the caller controls).
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
  /// `edge_cells` fixes the pool size (directed cells: one undirected edge
  /// consumes two); 0 picks a generous default for paper-scale overlays.
  /// The pool never grows — when it is exhausted add_edge() refuses the
  /// edge (logged once, counted) instead of allocating.
  explicit Overlay(std::size_t max_peers, std::size_t edge_cells = 0);

  /// Activate slots 0..g.num_nodes()-1 with the edges of `g`.
  void init_from_graph(const graph::Graph& g);

  [[nodiscard]] std::size_t capacity() const { return row_head_.size(); }
  [[nodiscard]] std::size_t num_active() const { return active_list_.size(); }
  [[nodiscard]] bool is_active(std::uint32_t peer) const;
  [[nodiscard]] std::size_t degree(std::uint32_t peer) const {
    CF_EXPECTS(peer < degree_.size());
    return degree_[peer];
  }

  /// Visit the peer's neighbors in row order (identical to the retired
  /// vector engine's iteration order). The callback must not mutate the
  /// overlay.
  template <typename Fn>
  void for_each_neighbor(std::uint32_t peer, Fn&& fn) const {
    CF_EXPECTS(peer < row_head_.size());
    for (std::uint32_t c = row_head_[peer]; c != kNullCell;
         c = cells_[c].next) {
      fn(cells_[c].to);
    }
  }

  /// Materialize the peer's neighbor list (row order) into `out` (cleared
  /// first). Allocation-free once `out` has reached its high-water
  /// capacity; the caller owns the lifetime, so nested queries are safe.
  void neighbors_into(std::uint32_t peer, std::vector<std::uint32_t>& out) const;

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
  /// remain reachable). Requires the slot to be inactive.
  void join(std::uint32_t peer, std::size_t target_links, util::Rng& rng);

  /// Deactivate a slot, removing all incident edges (cells return to the
  /// pool's free list).
  void leave(std::uint32_t peer);

  /// Add one undirected edge between active peers; false on duplicates/self
  /// (and, loudly, when the edge pool is exhausted).
  bool add_edge(std::uint32_t a, std::uint32_t b);

  /// Pool introspection (tests and capacity planning).
  [[nodiscard]] std::size_t edge_cell_capacity() const { return cells_.size(); }
  [[nodiscard]] std::size_t edge_cells_in_use() const { return cells_in_use_; }
  /// Edges refused because the pool was exhausted.
  [[nodiscard]] std::uint64_t edges_dropped() const { return edges_dropped_; }

 private:
  static constexpr std::uint32_t kNullCell = 0xffffffffu;

  /// One directed adjacency entry: a neighbor id and the next cell of the
  /// owning row (or, on the free list, the next free cell).
  struct EdgeCell {
    std::uint32_t to;
    std::uint32_t next;
  };

  void remove_directed(std::uint32_t from, std::uint32_t to);
  void set_active_bit(std::uint32_t peer, bool value);
  /// Ordered insert into / erase from the dense active array.
  void list_insert(std::uint32_t peer);
  void list_erase(std::uint32_t peer);
  /// Pop a cell off the free list; kNullCell when the pool is exhausted.
  std::uint32_t alloc_cell();
  void free_cell(std::uint32_t cell);
  /// Append `to` at the tail of `from`'s row (vector push_back order).
  void row_push_back(std::uint32_t from, std::uint32_t to);
  /// Return every cell of the row to the free list and reset the row.
  void row_clear(std::uint32_t peer);
  void reset_free_list();

  std::vector<EdgeCell> cells_;               ///< the pool, fixed capacity
  std::uint32_t free_head_ = kNullCell;       ///< free-list head
  std::size_t cells_in_use_ = 0;
  std::uint64_t edges_dropped_ = 0;
  std::vector<std::uint32_t> row_head_;       ///< per-peer chain head
  std::vector<std::uint32_t> row_tail_;       ///< per-peer chain tail
  std::vector<std::uint32_t> degree_;         ///< per-peer chain length
  std::vector<std::uint64_t> active_words_;   ///< ceil(capacity/64) words
  std::vector<std::uint32_t> active_list_;    ///< active ids, ascending
  std::vector<double> join_weights_;          ///< scratch for join()
  /// Free-slot scan cursor: every word below it is fully active. Mutable
  /// because the scan (const) advances it past words it proves full.
  mutable std::size_t free_word_hint_ = 0;
};

}  // namespace creditflow::p2p
