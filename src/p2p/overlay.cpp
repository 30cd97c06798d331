#include "p2p/overlay.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace creditflow::p2p {

namespace {

/// Arena size in cells: `edge_cells`, or when that is 0 room for twice a
/// paper-scale overlay's steady-state degree, floored so tiny test overlays
/// never starve. Offsets are 32-bit, so the arena stops at 2^32 - 1 cells.
std::size_t arena_cells(std::size_t max_peers, std::size_t edge_cells) {
  const std::size_t cells =
      edge_cells == 0 ? std::max<std::size_t>(256, max_peers * 64)
                      : edge_cells;
  CF_EXPECTS(cells >= 2);  // one undirected edge = two cells
  CF_EXPECTS_MSG(cells <= std::numeric_limits<std::uint32_t>::max(),
                 "overlay edge arena above 2^32 - 1 cells");
  return cells;
}

}  // namespace

Overlay::Overlay(std::size_t max_peers, std::size_t edge_cells)
    : cells_(arena_cells(max_peers, edge_cells)),
      rows_(max_peers),
      active_words_((max_peers + 63) / 64, 0) {
  CF_EXPECTS(max_peers > 0);
  active_list_.reserve(max_peers);
  pack_order_.reserve(max_peers);
}

void Overlay::row_push_back(std::uint32_t from, std::uint32_t to) {
  Row& row = rows_[from];
  if (row.degree == row.capacity) {
    // Full: move the row to the top with twice the room, packing the
    // arena first when the top has less than that left.
    const std::size_t want =
        std::max<std::size_t>(4, 2 * std::size_t{row.degree});
    if (cells_.size() - top_ < want) {
      pack(from);
    } else {
      std::copy_n(cells_.begin() + row.offset, row.degree,
                  cells_.begin() + top_);
      row.offset = top_;
    }
    row.capacity = static_cast<std::uint32_t>(
        std::min(want, cells_.size() - row.offset));
    top_ = row.offset + row.capacity;
  }
  CF_ENSURES(row.degree < row.capacity);  // add_edge checks the cell count
  cells_[row.offset + row.degree++] = to;
  ++cells_in_use_;
}

void Overlay::pack(std::uint32_t grow) {
  pack_order_.clear();
  for (std::uint32_t p = 0; p < rows_.size(); ++p) {
    if (rows_[p].degree > 0) {
      pack_order_.push_back(p);
    } else {
      rows_[p] = Row{};
    }
  }
  std::sort(pack_order_.begin(), pack_order_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return rows_[a].offset < rows_[b].offset;
            });
  // Each row moves down (or stays), so copying in offset order never
  // overwrites a row not yet moved.
  std::uint32_t packed = 0;
  for (const std::uint32_t p : pack_order_) {
    Row& row = rows_[p];
    if (row.offset != packed) {
      std::copy_n(cells_.begin() + row.offset, row.degree,
                  cells_.begin() + packed);
    }
    row.offset = packed;
    row.capacity = row.degree;
    packed += row.degree;
  }
  // Rotate `grow` behind every other row, so every free cell follows it:
  // at least one whenever add_edge admitted the edge (cells in use + 2
  // <= arena size before the edge's first append).
  Row& g = rows_[grow];
  if (g.degree > 0) {
    const auto at =
        std::find(pack_order_.begin(), pack_order_.end(), grow);
    std::rotate(cells_.begin() + g.offset, cells_.begin() + g.offset + g.degree,
                cells_.begin() + packed);
    for (auto it = at + 1; it != pack_order_.end(); ++it) {
      rows_[*it].offset -= g.degree;
    }
  }
  g.offset = packed - g.degree;
  top_ = packed;
}

void Overlay::init_from_graph(const graph::Graph& g) {
  CF_EXPECTS(g.num_nodes() <= rows_.size());
  CF_EXPECTS_MSG(2 * g.num_edges() <= cells_.size(),
                 "edge arena smaller than the bootstrap graph");
  std::fill(rows_.begin(), rows_.end(), Row{});
  top_ = 0;
  std::fill(active_words_.begin(), active_words_.end(), 0);
  active_list_.clear();
  free_word_hint_ = 0;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    set_active_bit(u, true);
    active_list_.push_back(u);
    const auto nbrs = g.neighbors(u);
    const auto degree = static_cast<std::uint32_t>(nbrs.size());
    rows_[u] = Row{top_, degree, degree};
    std::copy(nbrs.begin(), nbrs.end(), cells_.begin() + top_);
    top_ += degree;
  }
  cells_in_use_ = top_;
}

bool Overlay::is_active(std::uint32_t peer) const {
  CF_EXPECTS(peer < rows_.size());
  return (active_words_[peer / 64] >> (peer % 64)) & 1;
}

void Overlay::set_active_bit(std::uint32_t peer, bool value) {
  const std::uint64_t mask = std::uint64_t{1} << (peer % 64);
  if (value) {
    active_words_[peer / 64] |= mask;
  } else {
    active_words_[peer / 64] &= ~mask;
    // The freed slot's word may now be the lowest with a free bit.
    free_word_hint_ =
        std::min(free_word_hint_, static_cast<std::size_t>(peer / 64));
  }
}

void Overlay::list_insert(std::uint32_t peer) {
  const auto it =
      std::lower_bound(active_list_.begin(), active_list_.end(), peer);
  active_list_.insert(it, peer);
}

void Overlay::list_erase(std::uint32_t peer) {
  const auto it =
      std::lower_bound(active_list_.begin(), active_list_.end(), peer);
  CF_ENSURES(it != active_list_.end() && *it == peer);
  active_list_.erase(it);
}

std::optional<std::uint32_t> Overlay::lowest_inactive_slot() const {
  // Invariant: every word below free_word_hint_ is fully active, so the
  // scan may start there. Words it proves full advance the cursor, which
  // set_active_bit(false) rewinds — under heavy churn at large capacities
  // the scan touches O(1) words amortized instead of capacity/64.
  for (std::size_t w = free_word_hint_; w < active_words_.size(); ++w) {
    const std::uint64_t free = ~active_words_[w];
    if (free == 0) {
      free_word_hint_ = w + 1;
      continue;
    }
    const auto slot = static_cast<std::uint32_t>(
        w * 64 + static_cast<std::size_t>(std::countr_zero(free)));
    if (slot >= rows_.size()) break;  // padding bits of the last word
    free_word_hint_ = w;
    return slot;
  }
  return std::nullopt;
}

void Overlay::join(std::uint32_t peer, std::size_t target_links,
                   util::Rng& rng) {
  CF_EXPECTS(peer < rows_.size());
  CF_EXPECTS_MSG(!is_active(peer), "slot already active");
  set_active_bit(peer, true);
  list_insert(peer);
  if (active_list_.size() == 1) return;  // first peer has nobody to link to

  // Preferential attachment: draw targets with weight degree+1 from a
  // Fenwick tree, join_tree_[i] summing candidates (i - lowbit(i), i]
  // (1-based). The weights are integers far below 2^53, so every sum is
  // exact, and the descent below returns the first candidate whose prefix
  // sum reaches u = uniform() * total: the index Rng::discrete's scan
  // returns for the same draw, u == 0 (candidate 0) included.
  const std::span<const std::uint32_t> candidates = active_list_;
  const std::size_t n = candidates.size();
  const auto lowbit = [](std::size_t i) { return i & (~i + 1); };
  join_tree_.clear();
  join_tree_.push_back(0);
  std::uint64_t total = 0;
  for (const auto c : candidates) {
    const std::uint64_t w = c == peer ? 0 : std::uint64_t{rows_[c].degree} + 1;
    join_tree_.push_back(w);
    total += w;
  }
  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t parent = i + lowbit(i);
    if (parent <= n) join_tree_[parent] += join_tree_[i];
  }
  const std::size_t top = std::bit_floor(n);
  const std::size_t want = std::min(target_links, n - 1);
  std::size_t added = 0;
  std::size_t attempts = 0;
  while (added < want && attempts < 20 * want + 40) {
    ++attempts;
    const double u = rng.uniform() * static_cast<double>(total);
    std::size_t idx = 0;  // candidates before idx sum to `below` < u
    std::uint64_t below = 0;
    for (std::size_t step = top; step != 0; step >>= 1) {
      const std::size_t next = idx + step;
      if (next <= n && static_cast<double>(below + join_tree_[next]) < u) {
        idx = next;
        below += join_tree_[next];
      }
    }
    CF_ENSURES(idx < n);  // u < total
    const std::uint32_t target = candidates[idx];
    // An unlinked target's weight is still its degree before the join.
    const std::uint64_t w = std::uint64_t{rows_[target].degree} + 1;
    if (add_edge(peer, target)) {
      ++added;
      // At most one edge per target: its weight leaves the tree.
      for (std::size_t i = idx + 1; i <= n; i += lowbit(i)) {
        join_tree_[i] -= w;
      }
      total -= w;
    }
  }
}

void Overlay::leave(std::uint32_t peer) {
  CF_EXPECTS(peer < rows_.size());
  CF_EXPECTS_MSG(is_active(peer), "slot not active");
  for (const std::uint32_t nbr : neighbors(peer)) remove_directed(nbr, peer);
  cells_in_use_ -= rows_[peer].degree;
  rows_[peer].degree = 0;
  set_active_bit(peer, false);
  list_erase(peer);
}

bool Overlay::add_edge(std::uint32_t a, std::uint32_t b) {
  CF_EXPECTS(a < rows_.size() && b < rows_.size());
  CF_EXPECTS_MSG(is_active(a) && is_active(b),
                 "both endpoints must be active");
  if (a == b) return false;
  // Rows are symmetric, so the shorter one decides, as in Graph::has_edge.
  const bool a_shorter = rows_[a].degree <= rows_[b].degree;
  const auto row = neighbors(a_shorter ? a : b);
  if (std::find(row.begin(), row.end(), a_shorter ? b : a) != row.end()) {
    return false;
  }
  if (cells_in_use_ + 2 > cells_.size()) {
    if (edges_dropped_ == 0) {
      CF_LOG_WARN("edge arena full (capacity "
                  << cells_.size()
                  << " cells); edge refused, further drops counted silently");
    }
    ++edges_dropped_;
    return false;
  }
  row_push_back(a, b);
  row_push_back(b, a);
  return true;
}

void Overlay::remove_directed(std::uint32_t from, std::uint32_t to) {
  // The vector engine's swap-with-back removal inside the row's segment:
  // the last entry moves into the removed entry's place.
  Row& row = rows_[from];
  const auto first = cells_.begin() + row.offset;
  const auto last = first + row.degree;
  const auto it = std::find(first, last, to);
  if (it == last) return;
  *it = *(last - 1);
  --row.degree;
  --cells_in_use_;
}

}  // namespace creditflow::p2p
