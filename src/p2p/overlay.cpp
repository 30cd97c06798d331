#include "p2p/overlay.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace creditflow::p2p {

namespace {

/// Default pool sizing: room for twice a paper-scale overlay's steady-state
/// degree, floored so tiny test overlays never starve.
std::size_t default_edge_cells(std::size_t max_peers) {
  return std::max<std::size_t>(256, max_peers * 64);
}

}  // namespace

Overlay::Overlay(std::size_t max_peers, std::size_t edge_cells)
    : cells_(edge_cells == 0 ? default_edge_cells(max_peers) : edge_cells),
      row_head_(max_peers, kNullCell),
      row_tail_(max_peers, kNullCell),
      degree_(max_peers, 0),
      active_words_((max_peers + 63) / 64, 0) {
  CF_EXPECTS(max_peers > 0);
  CF_EXPECTS(cells_.size() >= 2);  // one undirected edge = two cells
  active_list_.reserve(max_peers);
  reset_free_list();
}

void Overlay::reset_free_list() {
  for (std::size_t c = 0; c + 1 < cells_.size(); ++c) {
    cells_[c].next = static_cast<std::uint32_t>(c + 1);
  }
  cells_.back().next = kNullCell;
  free_head_ = 0;
  cells_in_use_ = 0;
}

std::uint32_t Overlay::alloc_cell() {
  if (free_head_ == kNullCell) return kNullCell;
  const std::uint32_t c = free_head_;
  free_head_ = cells_[c].next;
  ++cells_in_use_;
  return c;
}

void Overlay::free_cell(std::uint32_t cell) {
  cells_[cell].next = free_head_;
  free_head_ = cell;
  --cells_in_use_;
}

void Overlay::row_push_back(std::uint32_t from, std::uint32_t to) {
  const std::uint32_t c = alloc_cell();
  CF_ENSURES(c != kNullCell);  // callers check pool headroom first
  cells_[c].to = to;
  cells_[c].next = kNullCell;
  if (row_tail_[from] == kNullCell) {
    row_head_[from] = c;
  } else {
    cells_[row_tail_[from]].next = c;
  }
  row_tail_[from] = c;
  ++degree_[from];
}

void Overlay::row_clear(std::uint32_t peer) {
  std::uint32_t c = row_head_[peer];
  while (c != kNullCell) {
    const std::uint32_t next = cells_[c].next;
    free_cell(c);
    c = next;
  }
  row_head_[peer] = kNullCell;
  row_tail_[peer] = kNullCell;
  degree_[peer] = 0;
}

void Overlay::init_from_graph(const graph::Graph& g) {
  CF_EXPECTS(g.num_nodes() <= row_head_.size());
  CF_EXPECTS_MSG(2 * g.num_edges() <= cells_.size(),
                 "edge pool smaller than the bootstrap graph");
  std::fill(row_head_.begin(), row_head_.end(), kNullCell);
  std::fill(row_tail_.begin(), row_tail_.end(), kNullCell);
  std::fill(degree_.begin(), degree_.end(), 0u);
  reset_free_list();
  std::fill(active_words_.begin(), active_words_.end(), 0);
  active_list_.clear();
  free_word_hint_ = 0;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    set_active_bit(u, true);
    active_list_.push_back(u);
    for (const graph::NodeId v : g.neighbors(u)) row_push_back(u, v);
  }
}

bool Overlay::is_active(std::uint32_t peer) const {
  CF_EXPECTS(peer < row_head_.size());
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

void Overlay::neighbors_into(std::uint32_t peer,
                             std::vector<std::uint32_t>& out) const {
  CF_EXPECTS(peer < row_head_.size());
  out.clear();
  for (std::uint32_t c = row_head_[peer]; c != kNullCell;
       c = cells_[c].next) {
    out.push_back(cells_[c].to);
  }
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
    if (slot >= row_head_.size()) break;  // padding bits of the last word
    free_word_hint_ = w;
    return slot;
  }
  return std::nullopt;
}

void Overlay::join(std::uint32_t peer, std::size_t target_links,
                   util::Rng& rng) {
  CF_EXPECTS(peer < row_head_.size());
  CF_EXPECTS_MSG(!is_active(peer), "slot already active");
  set_active_bit(peer, true);
  list_insert(peer);
  if (active_list_.size() == 1) return;  // first peer has nobody to link to

  // Preferential attachment: sample candidates with weight degree+1.
  const std::span<const std::uint32_t> candidates = active_list_;
  join_weights_.clear();
  for (auto c : candidates) {
    join_weights_.push_back(
        c == peer ? 0.0 : static_cast<double>(degree_[c]) + 1.0);
  }
  const std::size_t want =
      std::min(target_links, active_list_.size() - 1);
  std::size_t added = 0;
  std::size_t attempts = 0;
  while (added < want && attempts < 20 * want + 40) {
    ++attempts;
    const std::size_t idx = rng.discrete(join_weights_);
    if (add_edge(peer, candidates[idx])) {
      ++added;
      join_weights_[idx] = 0.0;  // at most one edge per target
    }
  }
}

void Overlay::leave(std::uint32_t peer) {
  CF_EXPECTS(peer < row_head_.size());
  CF_EXPECTS_MSG(is_active(peer), "slot not active");
  for (std::uint32_t c = row_head_[peer]; c != kNullCell;
       c = cells_[c].next) {
    remove_directed(cells_[c].to, peer);
  }
  row_clear(peer);
  set_active_bit(peer, false);
  list_erase(peer);
}

bool Overlay::add_edge(std::uint32_t a, std::uint32_t b) {
  CF_EXPECTS(a < row_head_.size() && b < row_head_.size());
  CF_EXPECTS_MSG(is_active(a) && is_active(b),
                 "both endpoints must be active");
  if (a == b) return false;
  for (std::uint32_t c = row_head_[a]; c != kNullCell; c = cells_[c].next) {
    if (cells_[c].to == b) return false;
  }
  if (cells_in_use_ + 2 > cells_.size()) {
    if (edges_dropped_ == 0) {
      CF_LOG_WARN("edge pool exhausted (capacity "
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
  // The linked rendering of the vector engine's swap-with-back removal:
  // copy the tail's value over the removed entry, then drop the tail cell.
  // Walk once, remembering the cell holding `to` and the tail's
  // predecessor; the resulting order matches `*it = row.back(); pop_back()`
  // exactly, which every RNG-consuming neighbor walk depends on.
  std::uint32_t found = kNullCell;
  std::uint32_t prev = kNullCell;
  std::uint32_t prev_of_tail = kNullCell;
  std::uint32_t prev_of_found = kNullCell;
  for (std::uint32_t c = row_head_[from]; c != kNullCell;
       c = cells_[c].next) {
    if (found == kNullCell && cells_[c].to == to) {
      found = c;
      prev_of_found = prev;
    }
    if (cells_[c].next == kNullCell) prev_of_tail = prev;
    prev = c;
  }
  if (found == kNullCell) return;
  const std::uint32_t tail = row_tail_[from];
  if (found == tail) {
    // Removing the last entry: unlink the tail directly.
    if (prev_of_found == kNullCell) {
      row_head_[from] = kNullCell;
      row_tail_[from] = kNullCell;
    } else {
      cells_[prev_of_found].next = kNullCell;
      row_tail_[from] = prev_of_found;
    }
  } else {
    cells_[found].to = cells_[tail].to;
    if (prev_of_tail == kNullCell) {
      // Tail had no predecessor: row has a single cell, so found == tail —
      // handled above. Unreachable, kept as a guard.
      row_head_[from] = kNullCell;
      row_tail_[from] = kNullCell;
    } else {
      cells_[prev_of_tail].next = kNullCell;
      row_tail_[from] = prev_of_tail;
    }
  }
  free_cell(tail);
  --degree_[from];
}

}  // namespace creditflow::p2p
