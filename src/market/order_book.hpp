// CreditFlow market layer: OrderBook — a per-market quality-ordered credit
// order book for chunk capacity.
//
// Seeders post asks (price, quantity, scoped to the chunks they own in the
// current window) and buyers cross the book with pluggable strategies; the
// paper's availability-uniform market picks sellers at a fixed unit price,
// while this book is the price-mediated regime of Ramaswamy et al. ("If You
// Can't Beat 'Em, Join 'Em"): supply and demand meet at a clearing price
// that emerges from seller repricing, not from a configured constant.
//
// Every resting order lives in a fixed-capacity cell indexed by its owner:
// asks by seller (one ask per seller, the protocol's natural shape: a
// seller's ask is its current upload capacity at its current price), bids
// by buyer. A count of resting asks per integer price level backs spread()
// and best_price(). Insert, cancel, reprice and fill are O(1) and
// allocation-free after construction. Price-time priority is (price, seq):
// every ask post stamps a strictly increasing sequence number, and a
// crossing strategy compares (price, seq) across whatever candidate set it
// scans.
#pragma once

#include <cstdint>
#include <vector>

#include "p2p/ledger.hpp"

namespace creditflow::market {

using p2p::Credits;
using p2p::PeerId;

/// Fixed-capacity, allocation-free order book over integer credit prices.
///
/// Capacity is one ask per seller slot and one bid per buyer slot
/// (`max_peers` each), with price levels 1..max_price. Posting an ask for
/// a seller that already has one is a reprice: the new ask takes a fresh
/// sequence number, so repricing forfeits time priority, as on any
/// exchange.
class OrderBook {
 public:
  OrderBook(std::size_t max_peers, Credits max_price);

  OrderBook(const OrderBook&) = delete;
  OrderBook& operator=(const OrderBook&) = delete;

  // ---- Ask side ----------------------------------------------------------

  /// Post (or replace) `seller`'s ask: `quantity` units at `price` each.
  /// price is clamped to [1, max_price]; quantity 0 cancels instead.
  void post_ask(PeerId seller, Credits price, std::uint32_t quantity);

  /// Remove `seller`'s resting ask if any (churn/drain expiry). Returns
  /// true when an ask was actually resting.
  bool cancel_ask(PeerId seller);

  [[nodiscard]] bool has_ask(PeerId seller) const {
    return asks_[seller].quantity > 0;
  }
  /// Price of `seller`'s resting ask; requires has_ask(seller).
  [[nodiscard]] Credits ask_price(PeerId seller) const {
    return asks_[seller].price;
  }
  [[nodiscard]] std::uint32_t ask_quantity(PeerId seller) const {
    return asks_[seller].quantity;
  }
  [[nodiscard]] std::uint64_t ask_seq(PeerId seller) const {
    return asks_[seller].seq;
  }

  /// Fill one unit of `seller`'s ask; requires has_ask(seller). The ask
  /// expires automatically when its quantity drains to zero. Returns the
  /// remaining quantity.
  std::uint32_t fill_one(PeerId seller);

  // ---- Bid side (limit orders that rest until matched) -------------------

  /// Post (or replace) `buyer`'s resting limit bid. A resting bid is
  /// standing intent: the buyer found no ask at or under `limit` and will
  /// retry; it rests until a purchase at or under the limit matches it or
  /// the buyer departs, either of which cancels it. Any limit rests, 0
  /// included.
  void post_bid(PeerId buyer, Credits limit);
  /// Remove `buyer`'s resting bid (match or expiry). Returns true if one
  /// rested.
  bool cancel_bid(PeerId buyer);
  [[nodiscard]] bool has_bid(PeerId buyer) const {
    return bids_[buyer].resting;
  }
  [[nodiscard]] Credits bid_limit(PeerId buyer) const {
    return bids_[buyer].limit;
  }

  // ---- Book-level readouts ----------------------------------------------

  /// Resting asks (distinct sellers with open quantity).
  [[nodiscard]] std::size_t depth() const { return depth_; }
  /// The lowest price level at or above `from` (0..max_price + 1) with a
  /// resting ask, read from the per-level counts; max_price + 1 when none
  /// rests there. With every level below `from` empty this is the book's
  /// floor, the least price any resting ask has. Fills and cancels only
  /// raise the floor, so a caller that posts nothing in between re-reads
  /// it from its last value instead of from level 1.
  [[nodiscard]] Credits best_price(Credits from = 1) const;
  /// Highest minus lowest resting ask price; 0 when fewer than two price
  /// levels rest.
  [[nodiscard]] Credits spread() const;

 private:
  /// One ask cell, indexed by seller id; quantity == 0 means no ask rests.
  struct AskCell {
    Credits price = 0;
    std::uint32_t quantity = 0;
    std::uint64_t seq = 0;
  };
  struct BidCell {
    Credits limit = 0;
    bool resting = false;
  };

  std::vector<AskCell> asks_;  ///< indexed by seller id
  std::vector<BidCell> bids_;  ///< indexed by buyer id
  /// Resting asks per price level 0..max_price (level 0 stays empty).
  std::vector<std::uint32_t> level_count_;
  Credits max_price_;
  std::size_t depth_ = 0;
  std::uint64_t next_seq_ = 1;
};

}  // namespace creditflow::market
