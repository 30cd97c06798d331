// CreditFlow: the purchase phase's seller candidates.
//
// For each wanted chunk a buyer needs the neighbors that own it and can
// still sell. PurchaseCandidates answers that for the whole shopping list
// at once instead of rescanning the neighbor list per chunk. The wanted
// slots are the window slots the buyer's ownership row (PeerTable::owned)
// lacks, trimmed to the newest max_wanted. It keeps the buyer's eligible
// neighbors (those that pass the caller's seller test, in neighbor-list
// order), ORs their rows into a `reach` mask of the wanted slots some
// eligible neighbor owns, and, per reachable slot, keeps a bitmask over
// the eligible neighbors, built by ANDing each one's row with `reach`.
// Ascending bit position is neighbor-list order, so Sellers walks a
// chunk's candidates in the order a per-chunk neighbor scan would — the
// order the seller choice's RNG draws and tie-breaks depend on.
//
// for_each_reachable() walks the reachable chunks newest first, the
// purchase order, so a buyer phase visits only chunks it can buy: a wanted
// chunk no eligible neighbor owns would have no candidate, and choosing
// among none draws nothing and changes nothing.
//
// Sellers is templated on the mask width, Words = 1, 2 or kDynamicWords.
// width() fixes it once per phase by the rule the purchase.phase_one_word /
// two_word / generic counters count (one word only when the window also
// fits one word, so the reach mask is a single word too). Masks are at
// least one word, so an empty eligible set takes the one-word width
// whenever the window fits one word.
//
// Slots identify chunks relative to the buyer's window base. Every alive
// peer shares that base during a purchase phase: windows advance in
// lockstep, and churn never interleaves with a round.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "p2p/peer.hpp"
#include "util/assert.hpp"

namespace creditflow::p2p {

/// Per-buyer-phase candidate sets over one window's reachable chunks.
class PurchaseCandidates {
 public:
  /// Words template argument for masks wider than two words.
  static constexpr std::size_t kDynamicWords = 0;

  /// Rebuild for `buyer`'s phase. The wanted chunks are the window slots
  /// its ownership row lacks, trimmed to the newest `max_wanted`.
  /// eligible() = the `neighbors` that pass `is_seller(PeerId)` (in
  /// order); masks of max(1, ceil(eligible / 64)) words for every wanted
  /// chunk some eligible neighbor owns.
  template <typename IsSeller>
  void build(const PeerTable& peers, PeerId buyer,
             std::span<const PeerId> neighbors, IsSeller&& is_seller,
             std::size_t max_wanted) {
    window_ = peers.window();
    base_ = peers.base(buyer);
    base_slot_ = static_cast<std::size_t>(base_ % window_);
    // No aliveness check: a departed peer holds no overlay edges, so it
    // never appears in a neighbor list, and its ownership row is cleared
    // on departure. The compaction has no branch: every neighbor is
    // stored, and the count advances by the seller test, whose outcome a
    // branch could not predict.
    if (eligible_.size() < neighbors.size()) {
      eligible_.resize(neighbors.size());
    }
    PeerId* out = eligible_.data();
    std::size_t kept = 0;
    for (const PeerId nbr : neighbors) {
      out[kept] = nbr;
      kept += static_cast<std::size_t>(is_seller(nbr));
    }
    num_eligible_ = kept;
    words_ = std::max<std::size_t>(1, (num_eligible_ + 63) / 64);
    const std::span<const std::uint64_t> owned = peers.owned(buyer);
    const std::size_t row_words = owned.size();
    width_ = row_words == 1 && words_ == 1 ? 1
             : words_ == 2                 ? 2
                                           : kDynamicWords;
    if (masks_.size() < window_ * words_) masks_.resize(window_ * words_);
    reach_.resize(row_words);
    // Wanted: the window slots the buyer lacks (padding bits stay clear).
    for (std::size_t w = 0; w < row_words; ++w) reach_[w] = ~owned[w];
    if (window_ % 64 != 0) {
      reach_[row_words - 1] &= ~std::uint64_t{0} >> (64 - window_ % 64);
    }
    // A buyer misses at most window_ chunks, so only a shorter list drops
    // any (and only then is the row's popcount needed).
    if (max_wanted < window_) {
      const std::size_t missing = window_ - peers.count(buyer);
      if (missing > max_wanted) drop_oldest(missing - max_wanted);
    }
    switch (width_) {
      case 1:
        fill<1>(peers);
        break;
      case 2:
        fill<2>(peers);
        break;
      default:
        fill<kDynamicWords>(peers);
    }
  }

  /// This phase's Sellers width: 1, 2 or kDynamicWords.
  [[nodiscard]] std::size_t width() const { return width_; }
  /// Neighbors that passed the seller test, in order (bit j = eligible()[j]).
  [[nodiscard]] std::span<const PeerId> eligible() const {
    return {eligible_.data(), num_eligible_};
  }

  /// Call f(ChunkId) for each reachable wanted chunk, newest first (slots
  /// base_slot − 1 … 0, then window − 1 … base_slot), until f returns
  /// false. The set is fixed at build(): a chunk whose candidates remove()
  /// took away is still visited, with none.
  template <typename F>
  void for_each_reachable(F&& f) const {
    if (!walk_down(0, base_slot_, base_ + (window_ - base_slot_), f)) return;
    walk_down(base_slot_, window_, base_ - base_slot_, f);
  }

  /// The candidates of one reachable chunk, in neighbor-list order: a view
  /// of its slot's mask, valid until the next build() or remove().
  template <std::size_t Words>
  class Sellers {
   public:
    [[nodiscard]] std::size_t count() const {
      std::size_t n = 0;
      for (std::size_t w = 0; w < words(); ++w) {
        n += static_cast<std::size_t>(std::popcount(mask_[w]));
      }
      return n;
    }

    /// Call f(PeerId) for each candidate.
    template <typename F>
    void for_each(F&& f) const {
      for (std::size_t w = 0; w < words(); ++w) {
        for (std::uint64_t bits = mask_[w]; bits != 0; bits &= bits - 1) {
          f(eligible_[w * 64 +
                      static_cast<std::size_t>(std::countr_zero(bits))]);
        }
      }
    }

    /// The `n`-th (0-based) candidate; requires n < count().
    [[nodiscard]] PeerId nth(std::size_t n) const {
      for (std::size_t w = 0; w < words(); ++w) {
        const auto k = static_cast<std::size_t>(std::popcount(mask_[w]));
        if (n < k) {
          std::uint64_t bits = mask_[w];
          for (; n > 0; --n) bits &= bits - 1;
          return eligible_[w * 64 +
                           static_cast<std::size_t>(std::countr_zero(bits))];
        }
        n -= k;
      }
      CF_ENSURES_MSG(false, "nth: fewer candidates than requested");
      return 0;  // unreachable
    }

   private:
    friend class PurchaseCandidates;
    Sellers(const std::uint64_t* mask, const PeerId* eligible,
            std::size_t words)
        : mask_(mask), eligible_(eligible), words_(words) {}
    [[nodiscard]] std::size_t words() const {
      return Words == kDynamicWords ? words_ : Words;
    }

    const std::uint64_t* mask_;
    const PeerId* eligible_;
    std::size_t words_;
  };

  /// Reachable chunk `c`'s candidates, walked as Words-word masks (Words
  /// must be width(), or kDynamicWords).
  template <std::size_t Words>
  [[nodiscard]] Sellers<Words> sellers(ChunkId c) const {
    return {masks_.data() + slot(c) * stride<Words>(), eligible_.data(),
            words_};
  }

  /// `seller` stopped passing the seller test mid-phase: clear its bit
  /// from every reachable slot, so later chunks skip it exactly as a
  /// per-chunk seller test would.
  void remove(PeerId seller) {
    // Rare (a seller drains at most once per buyer phase), so a linear
    // scan for its bit position is fine.
    const std::span<const PeerId> eligible = this->eligible();
    const auto it = std::find(eligible.begin(), eligible.end(), seller);
    if (it == eligible.end()) return;
    const auto j = static_cast<std::size_t>(it - eligible.begin());
    const std::uint64_t clear = ~(std::uint64_t{1} << (j & 63));
    std::uint64_t* column = masks_.data() + (j >> 6);
    for (std::size_t w = 0; w < reach_.size(); ++w) {
      for (std::uint64_t m = reach_[w]; m != 0; m &= m - 1) {
        const std::size_t s =
            w * 64 + static_cast<std::size_t>(std::countr_zero(m));
        column[s * words_] &= clear;
      }
    }
  }

 private:
  template <std::size_t Words>
  [[nodiscard]] std::size_t stride() const {
    return Words == kDynamicWords ? words_ : Words;
  }

  /// Ring slot of chunk c without a per-chunk divide: every chunk a phase
  /// touches lies in [base_, base_ + window_), so one wrapping add from the
  /// base slot suffices.
  [[nodiscard]] std::size_t slot(ChunkId c) const {
    std::size_t s = base_slot_ + static_cast<std::size_t>(c - base_);
    if (s >= window_) s -= window_;
    return s;
  }

  /// Clear the `drop` oldest wanted slots: the lowest set bits of reach_
  /// from base_slot_ up, wrapping to slot 0.
  void drop_oldest(std::size_t drop) {
    const std::size_t first = base_slot_ / 64;
    const std::size_t offset = base_slot_ % 64;
    const auto clear_lowest = [&](std::size_t w, std::uint64_t range) {
      const std::uint64_t bits = reach_[w] & range;
      const auto n = static_cast<std::size_t>(std::popcount(bits));
      std::uint64_t kept = bits;
      if (n <= drop) {
        kept = 0;
        drop -= n;
      } else {
        for (; drop > 0; --drop) kept &= kept - 1;
      }
      reach_[w] &= ~(bits ^ kept);
    };
    clear_lowest(first, ~std::uint64_t{0} << offset);
    for (std::size_t w = first + 1; drop > 0 && w < reach_.size(); ++w) {
      clear_lowest(w, ~std::uint64_t{0});
    }
    for (std::size_t w = 0; drop > 0 && w < first; ++w) {
      clear_lowest(w, ~std::uint64_t{0});
    }
    if (drop > 0 && offset != 0) {
      clear_lowest(first, (std::uint64_t{1} << offset) - 1);
    }
  }

  /// Call f(chunk_at_slot0 + s) for each set slot s of reach_ in [lo, hi),
  /// descending; false once f returned false.
  template <typename F>
  bool walk_down(std::size_t lo, std::size_t hi, ChunkId chunk_at_slot0,
                 F& f) const {
    if (lo >= hi) return true;
    for (std::size_t w = (hi - 1) / 64 + 1; w-- > lo / 64;) {
      std::uint64_t bits = reach_[w];
      if ((w + 1) * 64 > hi) bits &= ~std::uint64_t{0} >> (64 - hi % 64);
      if (w * 64 < lo) bits &= ~std::uint64_t{0} << (lo % 64);
      while (bits != 0) {
        const auto b = static_cast<std::size_t>(63 - std::countl_zero(bits));
        bits &= ~(std::uint64_t{1} << b);
        if (!f(chunk_at_slot0 + w * 64 + b)) return false;
      }
    }
    return true;
  }

  /// Narrow the wanted slots to those some eligible neighbor owns, clear
  /// their masks, then set bit j of every reachable slot eligible()[j]
  /// owns.
  template <std::size_t Words>
  void fill(const PeerTable& peers) {
    // Locals, not members, inside the loops: the mask stores could alias
    // any member of word type, which would force a reload per bit.
    const std::size_t row_words = Words == 1 ? 1 : reach_.size();
    const std::size_t slot_stride = stride<Words>();
    std::uint64_t* reach = reach_.data();
    std::uint64_t* masks = masks_.data();
    const std::span<const PeerId> eligible = this->eligible();
    for (std::size_t w = 0; w < row_words; ++w) {
      std::uint64_t owned_by_any = 0;
      for (const PeerId nbr : eligible) owned_by_any |= peers.owned(nbr)[w];
      reach[w] &= owned_by_any;
      for (std::uint64_t m = reach[w]; m != 0; m &= m - 1) {
        const std::size_t s =
            w * 64 + static_cast<std::size_t>(std::countr_zero(m));
        std::fill_n(masks + s * slot_stride, slot_stride, std::uint64_t{0});
      }
    }
    for (std::size_t j = 0; j < eligible.size(); ++j) {
      const std::uint64_t* row = peers.owned(eligible[j]).data();
      const std::uint64_t bit = std::uint64_t{1} << (j & 63);
      std::uint64_t* column = masks + (j >> 6);
      for (std::size_t w = 0; w < row_words; ++w) {
        for (std::uint64_t m = row[w] & reach[w]; m != 0; m &= m - 1) {
          const std::size_t s =
              w * 64 + static_cast<std::size_t>(std::countr_zero(m));
          column[s * slot_stride] |= bit;
        }
      }
    }
  }

  std::vector<PeerId> eligible_;  ///< first num_eligible_: the sellers
  std::size_t num_eligible_ = 0;
  std::vector<std::uint64_t> reach_;  ///< bit s set <=> slot s is reachable
  std::vector<std::uint64_t> masks_;  ///< per-slot masks, slot-major
  std::size_t words_ = 0;             ///< mask words per slot
  std::size_t width_ = kDynamicWords;
  std::size_t window_ = 0;
  ChunkId base_ = 0;
  std::size_t base_slot_ = 0;
};

}  // namespace creditflow::p2p
