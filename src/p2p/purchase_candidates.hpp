// CreditFlow: the purchase phase's seller candidates.
//
// For each wanted chunk a buyer needs the neighbors that own it and can
// still sell. PurchaseCandidates answers that for the whole shopping list
// at once instead of rescanning the neighbor list per chunk: it keeps the
// buyer's eligible neighbors (those that pass the caller's seller test, in
// neighbor-list order) and, per wanted window slot, a bitmask over them,
// built by ANDing each neighbor's ownership row (PeerTable::owned, the
// BufferMap words) with the wanted-slot mask. Ascending bit position is
// neighbor-list order, so Sellers walks a chunk's candidates in the order a
// per-chunk neighbor scan would — the order the seller choice's RNG draws
// and tie-breaks depend on.
//
// Sellers is templated on the mask width, Words = 1, 2 or kDynamicWords.
// width() fixes it once per phase by the rule the purchase.phase_one_word /
// two_word / generic counters count (one word only when the window also
// fits one word, so the wanted-slot mask is a single word too). Masks are
// at least one word, so an empty eligible set takes the one-word width
// whenever the window fits one word.
//
// Slots identify chunks relative to build()'s window base. Every alive
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

/// Per-buyer-phase candidate sets over one window's wanted chunks.
class PurchaseCandidates {
 public:
  /// Words template argument for masks wider than two words.
  static constexpr std::size_t kDynamicWords = 0;

  /// Rebuild for one buyer phase: eligible() = the `neighbors` that pass
  /// `is_seller(PeerId)` (in order), masks of max(1, ceil(eligible / 64))
  /// words for the chunks of `wanted`, which must all lie in the window
  /// that starts at `window_base`.
  template <typename IsSeller>
  void build(const PeerTable& peers, std::span<const PeerId> neighbors,
             IsSeller&& is_seller, std::span<const ChunkId> wanted,
             ChunkId window_base) {
    window_ = peers.window();
    base_ = window_base;
    base_slot_ = static_cast<std::size_t>(window_base % window_);
    // No aliveness check: a departed peer holds no overlay edges, so it
    // never appears in a neighbor list, and its ownership row is cleared
    // on departure.
    eligible_.clear();
    for (const PeerId nbr : neighbors) {
      if (is_seller(nbr)) eligible_.push_back(nbr);
    }
    words_ = std::max<std::size_t>(1, (eligible_.size() + 63) / 64);
    const std::size_t row_words = BufferMap::words_for(window_);
    width_ = row_words == 1 && words_ == 1 ? 1
             : words_ == 2                 ? 2
                                           : kDynamicWords;
    if (masks_.size() < window_ * words_) masks_.resize(window_ * words_);
    wanted_.resize(row_words);
    switch (width_) {
      case 1:
        fill<1>(peers, wanted);
        break;
      case 2:
        fill<2>(peers, wanted);
        break;
      default:
        fill<kDynamicWords>(peers, wanted);
    }
  }

  /// This phase's Sellers width: 1, 2 or kDynamicWords.
  [[nodiscard]] std::size_t width() const { return width_; }
  /// Neighbors that passed the seller test, in order (bit j = eligible()[j]).
  [[nodiscard]] std::span<const PeerId> eligible() const { return eligible_; }

  /// The candidates of one wanted chunk, in neighbor-list order: a view of
  /// its slot's mask, valid until the next build() or remove().
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

  /// Wanted chunk `c`'s candidates, walked as Words-word masks (Words must
  /// be width(), or kDynamicWords).
  template <std::size_t Words>
  [[nodiscard]] Sellers<Words> sellers(ChunkId c) const {
    return {masks_.data() + slot(c) * stride<Words>(), eligible_.data(),
            words_};
  }

  /// `seller` stopped passing the seller test mid-phase: clear its bit
  /// from every slot of `wanted`, so later chunks skip it exactly as a
  /// per-chunk seller test would.
  void remove(PeerId seller, std::span<const ChunkId> wanted) {
    // Rare (a seller drains at most once per buyer phase), so a linear
    // scan for its bit position is fine.
    const auto it = std::find(eligible_.begin(), eligible_.end(), seller);
    if (it == eligible_.end()) return;
    const auto j = static_cast<std::size_t>(it - eligible_.begin());
    const std::uint64_t clear = ~(std::uint64_t{1} << (j & 63));
    std::uint64_t* column = masks_.data() + (j >> 6);
    for (const ChunkId c : wanted) column[slot(c) * words_] &= clear;
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

  /// Mark the wanted slots, clear their masks, then set bit j of every
  /// wanted slot that eligible()[j] owns.
  template <std::size_t Words>
  void fill(const PeerTable& peers, std::span<const ChunkId> wanted) {
    // Locals, not members, inside the loops: the mask stores could alias
    // any member of word type, which would force a reload per bit.
    const std::size_t row_words = Words == 1 ? 1 : wanted_.size();
    const std::size_t slot_stride = stride<Words>();
    std::uint64_t* want = wanted_.data();
    std::uint64_t* masks = masks_.data();
    std::fill_n(want, row_words, std::uint64_t{0});
    for (const ChunkId c : wanted) {
      const std::size_t s = slot(c);
      want[s / 64] |= std::uint64_t{1} << (s % 64);
      std::fill_n(masks + s * slot_stride, slot_stride, std::uint64_t{0});
    }
    for (std::size_t j = 0; j < eligible_.size(); ++j) {
      const std::uint64_t* row = peers.owned(eligible_[j]).data();
      const std::uint64_t bit = std::uint64_t{1} << (j & 63);
      std::uint64_t* column = masks + (j >> 6);
      for (std::size_t w = 0; w < row_words; ++w) {
        for (std::uint64_t m = row[w] & want[w]; m != 0; m &= m - 1) {
          const std::size_t s =
              w * 64 + static_cast<std::size_t>(std::countr_zero(m));
          column[s * slot_stride] |= bit;
        }
      }
    }
  }

  std::vector<PeerId> eligible_;
  std::vector<std::uint64_t> wanted_;  ///< bit s set <=> slot s is wanted
  std::vector<std::uint64_t> masks_;   ///< per-slot masks, slot-major
  std::size_t words_ = 0;              ///< mask words per slot
  std::size_t width_ = kDynamicWords;
  std::size_t window_ = 0;
  ChunkId base_ = 0;
  std::size_t base_slot_ = 0;
};

}  // namespace creditflow::p2p
