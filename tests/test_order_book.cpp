// Tests for market/order_book and its protocol wiring: price-time
// priority under interleaved insert/cancel, partial-fill conservation,
// resting bids, ask expiry on seller death, the book's floor and the
// best-ask walks it ends, and a mirror-model fuzz of every readout the
// protocol takes from the book.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "market/order_book.hpp"
#include "p2p/protocol.hpp"
#include "scenario/registry.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace creditflow::market {
namespace {

constexpr PeerId kNoSeller = 0xffffffffu;

/// The best ask among `sellers` by (price, seq) — the min-scan the
/// protocol's best-ask and limit crossings run over a buyer's neighbors.
PeerId best_of(const OrderBook& book, const std::vector<PeerId>& sellers) {
  PeerId best = kNoSeller;
  for (const PeerId s : sellers) {
    if (!book.has_ask(s)) continue;
    if (best == kNoSeller || book.ask_price(s) < book.ask_price(best) ||
        (book.ask_price(s) == book.ask_price(best) &&
         book.ask_seq(s) < book.ask_seq(best))) {
      best = s;
    }
  }
  return best;
}

TEST(OrderBook, PriceTimePriorityUnderInterleavedInsertCancel) {
  OrderBook book(16, 10);
  const std::vector<PeerId> all = {1, 3, 4, 7, 9};
  book.post_ask(3, 5, 4);
  book.post_ask(7, 2, 1);
  book.post_ask(1, 5, 2);   // same level as 3, behind it
  book.post_ask(9, 2, 3);   // same level as 7, behind it
  book.post_ask(4, 8, 1);
  EXPECT_EQ(best_of(book, all), 7u);
  EXPECT_LT(book.ask_seq(3), book.ask_seq(1));
  EXPECT_EQ(book.depth(), 5u);
  EXPECT_EQ(book.spread(), 6u);

  // Cancel the level-2 head: 9 becomes best; 3 still ahead of 1 at 5.
  EXPECT_TRUE(book.cancel_ask(7));
  EXPECT_FALSE(book.cancel_ask(7));
  EXPECT_EQ(best_of(book, all), 9u);
  EXPECT_EQ(best_of(book, {1, 3}), 3u);

  // Reprice 3 down into level 2: it forfeits time priority — it ranks
  // BEHIND 9 even though 3's original post predates 9's.
  book.post_ask(3, 2, 4);
  EXPECT_EQ(book.ask_price(3), 2u);
  EXPECT_EQ(best_of(book, all), 9u);
  EXPECT_EQ(best_of(book, {1, 3, 4}), 3u);
  EXPECT_GT(book.ask_seq(3), book.ask_seq(9));

  // Re-insert 7 at its old price: fresh seq, behind 9 and 3.
  book.post_ask(7, 2, 1);
  EXPECT_EQ(best_of(book, all), 9u);
  EXPECT_GT(book.ask_seq(7), book.ask_seq(3));
  EXPECT_EQ(book.depth(), 5u);
  EXPECT_EQ(book.spread(), 6u);

  // Out-of-range prices clamp into [1, max_price].
  book.post_ask(4, 40, 1);
  EXPECT_EQ(book.ask_price(4), 10u);
  book.post_ask(1, 0, 1);
  EXPECT_EQ(book.ask_price(1), 1u);
  EXPECT_EQ(book.spread(), 9u);
}

TEST(OrderBook, PartialFillConservation) {
  OrderBook book(8, 10);
  book.post_ask(2, 3, 5);
  book.post_ask(5, 4, 2);
  EXPECT_EQ(book.depth(), 2u);
  EXPECT_EQ(book.spread(), 1u);

  // Partial fills conserve quantity one unit at a time; the ask survives
  // until its last unit and then expires in place.
  EXPECT_EQ(book.fill_one(2), 4u);
  EXPECT_EQ(book.fill_one(2), 3u);
  EXPECT_EQ(book.ask_quantity(2), 3u);
  EXPECT_EQ(book.depth(), 2u);
  EXPECT_TRUE(book.has_ask(2));

  EXPECT_EQ(book.fill_one(5), 1u);
  EXPECT_EQ(book.fill_one(5), 0u);
  EXPECT_FALSE(book.has_ask(5));
  EXPECT_EQ(book.depth(), 1u);
  EXPECT_EQ(book.spread(), 0u);  // one level left
  EXPECT_EQ(book.ask_quantity(2), 3u);
  EXPECT_FALSE(book.cancel_ask(5));  // a drained ask no longer rests

  // Quantity 0 cancels instead of posting.
  book.post_ask(2, 3, 0);
  EXPECT_FALSE(book.has_ask(2));
  EXPECT_EQ(book.depth(), 0u);
}

TEST(OrderBook, BestPriceFollowsLevels) {
  // The floor is the lowest level whose count is non-zero: an empty book
  // reads max_price + 1, and each post, reprice, cancel and drain moves it
  // as the level counts say. A scan from a level at or below the floor
  // reads the floor; from above it, the next resting level up.
  OrderBook book(8, 10);
  EXPECT_EQ(book.best_price(), 11u);
  book.post_ask(1, 6, 2);
  EXPECT_EQ(book.best_price(), 6u);
  book.post_ask(2, 4, 1);
  EXPECT_EQ(book.best_price(), 4u);
  book.post_ask(3, 4, 1);  // a second ask at the floor
  book.post_ask(2, 9, 1);  // reprice one of them up: level 4 keeps the other
  EXPECT_EQ(book.best_price(), 4u);
  EXPECT_EQ(book.best_price(0), 4u);
  EXPECT_EQ(book.best_price(5), 6u);
  EXPECT_EQ(book.fill_one(3), 0u);  // drain the floor's last ask
  EXPECT_EQ(book.best_price(), 6u);
  EXPECT_EQ(book.best_price(4), 6u);  // up from the old floor
  EXPECT_EQ(book.fill_one(1), 1u);    // a partial fill leaves its level
  EXPECT_EQ(book.best_price(), 6u);
  EXPECT_TRUE(book.cancel_ask(1));
  EXPECT_EQ(book.best_price(), 9u);
  EXPECT_EQ(book.best_price(10), 11u);
  book.post_ask(2, 1, 1);  // reprice down to level 1
  EXPECT_EQ(book.best_price(), 1u);
  book.post_ask(2, 3, 0);  // quantity 0 cancels
  EXPECT_EQ(book.best_price(), 11u);
  EXPECT_EQ(book.depth(), 0u);
}

TEST(OrderBook, RestingBidsReplaceAndClearOnMatch) {
  OrderBook book(8, 10);
  EXPECT_FALSE(book.has_bid(1));
  book.post_bid(1, 3);
  book.post_bid(4, 2);
  book.post_bid(1, 5);  // replace, not a second bid
  EXPECT_EQ(book.bid_limit(1), 5u);
  EXPECT_TRUE(book.cancel_bid(1));  // matched
  EXPECT_FALSE(book.has_bid(1));
  EXPECT_TRUE(book.cancel_bid(4));
  EXPECT_FALSE(book.cancel_bid(4));

  // A limit-0 bid is a resting bid like any other.
  book.post_bid(6, 0);
  EXPECT_TRUE(book.has_bid(6));
  EXPECT_EQ(book.bid_limit(6), 0u);
  EXPECT_TRUE(book.cancel_bid(6));
}

TEST(OrderBook, MirrorModelFuzz) {
  // Random interleaved ask posts, cancels and fills and bid posts and
  // cancels against a plain per-owner model. After every operation each
  // readout the protocol takes must agree with the model: ask presence,
  // price, quantity and seq order, bid presence and limit, depth, spread
  // and the floor scanned from every level.
  constexpr std::size_t kPeers = 24;
  constexpr Credits kMaxPrice = 6;
  struct Ask {
    Credits price = 0;
    std::uint32_t quantity = 0;  // 0 = absent
    std::uint64_t seq = 0;
  };
  struct Bid {
    Credits limit = 0;
    bool resting = false;
  };
  OrderBook book(kPeers, kMaxPrice);
  std::vector<Ask> asks(kPeers);
  std::vector<Bid> bids(kPeers);
  util::Rng rng(177);
  std::uint64_t seq = 0;

  for (int step = 0; step < 4000; ++step) {
    const auto p = static_cast<PeerId>(rng.uniform_index(kPeers));
    switch (rng.uniform_index(5)) {
      case 0: {  // post / reprice
        const auto price =
            static_cast<Credits>(1 + rng.uniform_index(kMaxPrice));
        const auto qty = static_cast<std::uint32_t>(1 + rng.uniform_index(4));
        book.post_ask(p, price, qty);
        asks[p] = Ask{price, qty, ++seq};
        break;
      }
      case 1:  // cancel
        EXPECT_EQ(book.cancel_ask(p), asks[p].quantity > 0);
        asks[p].quantity = 0;
        break;
      case 2:  // fill one unit if an ask rests
        if (asks[p].quantity == 0) break;
        EXPECT_EQ(book.fill_one(p), asks[p].quantity - 1);
        --asks[p].quantity;
        break;
      case 3: {  // post / replace a bid, limit 0 included
        const auto limit = static_cast<Credits>(rng.uniform_index(kMaxPrice));
        book.post_bid(p, limit);
        bids[p] = Bid{limit, true};
        break;
      }
      default:  // cancel a bid
        EXPECT_EQ(book.cancel_bid(p), bids[p].resting);
        bids[p].resting = false;
        break;
    }

    std::size_t depth = 0;
    Credits lo = kMaxPrice + 1, hi = 0;
    for (PeerId s = 0; s < kPeers; ++s) {
      const Ask& a = asks[s];
      ASSERT_EQ(book.has_ask(s), a.quantity > 0) << "step " << step;
      ASSERT_EQ(book.has_bid(s), bids[s].resting) << "step " << step;
      if (bids[s].resting) {
        EXPECT_EQ(book.bid_limit(s), bids[s].limit) << "step " << step;
      }
      if (a.quantity == 0) continue;
      ++depth;
      lo = std::min(lo, a.price);
      hi = std::max(hi, a.price);
      EXPECT_EQ(book.ask_price(s), a.price) << "step " << step;
      EXPECT_EQ(book.ask_quantity(s), a.quantity) << "step " << step;
      for (PeerId t = 0; t < s; ++t) {
        if (asks[t].quantity == 0) continue;
        EXPECT_EQ(book.ask_seq(t) < book.ask_seq(s), asks[t].seq < a.seq)
            << "step " << step << " sellers " << t << ", " << s;
      }
    }
    EXPECT_EQ(book.depth(), depth) << "step " << step;
    EXPECT_EQ(book.spread(), depth == 0 ? 0 : hi - lo) << "step " << step;
    EXPECT_EQ(book.best_price(), lo) << "step " << step;
    for (Credits from = 0; from <= kMaxPrice + 1; ++from) {
      Credits floor = kMaxPrice + 1;
      for (const Ask& a : asks) {
        if (a.quantity > 0 && a.price >= from) floor = std::min(floor, a.price);
      }
      EXPECT_EQ(book.best_price(from), floor)
          << "step " << step << " from " << from;
    }
  }
}

p2p::ProtocolConfig book_config(std::uint64_t seed) {
  p2p::ProtocolConfig cfg;
  cfg.initial_peers = 80;
  cfg.max_peers = 120;
  cfg.initial_credits = 60;
  cfg.seed = seed;
  cfg.market_mode = p2p::ProtocolConfig::MarketMode::kOrderBook;
  cfg.book.base_price = 2;
  cfg.book.ask_pricing =
      p2p::ProtocolConfig::OrderBookConfig::AskPricing::kAdaptive;
  return cfg;
}

TEST(OrderBookProtocol, FillConservationAgainstLedger) {
  // Every purchase in book mode is a book fill: the book's fill/volume
  // counters must agree with the market-wide transaction accounting, and
  // the ledger must still conserve credits to the unit.
  sim::Simulator sim;
  p2p::StreamingProtocol proto(book_config(21), sim);
  proto.start();
  sim.run_until(400.0);

  auto& metrics = proto.metrics();
  EXPECT_GT(metrics.counter("book.fills"), 0u);
  EXPECT_EQ(metrics.counter("book.fills"),
            metrics.counter("market.transactions"));
  EXPECT_EQ(metrics.counter("book.volume"),
            metrics.counter("market.volume"));
  EXPECT_TRUE(proto.ledger().audit());

  const OrderBook* book = proto.order_book();
  ASSERT_NE(book, nullptr);
  EXPECT_LE(book->depth(), proto.num_alive());
}

TEST(OrderBookProtocol, AskExpiryOnSellerDeath) {
  auto cfg = book_config(22);
  cfg.churn.enabled = true;
  cfg.churn.arrival_rate = 0.5;
  cfg.churn.mean_lifespan = 120.0;
  sim::Simulator sim;
  p2p::StreamingProtocol proto(cfg, sim);
  proto.start();
  sim.run_until(600.0);

  EXPECT_GT(proto.metrics().counter("churn.departures"), 0u);
  EXPECT_GT(proto.metrics().counter("book.asks_expired"), 0u)
      << "departures never expired a resting ask";

  // No dead seller may keep an ask on the book.
  const OrderBook* book = proto.order_book();
  ASSERT_NE(book, nullptr);
  std::size_t resting = 0;
  for (p2p::PeerId id = 0; id < cfg.max_peers; ++id) {
    if (!book->has_ask(id)) continue;
    ++resting;
    EXPECT_TRUE(proto.overlay().is_active(id))
        << "dead seller " << id << " still resting";
  }
  EXPECT_EQ(book->depth(), resting);
}

TEST(OrderBookProtocol, LimitZeroBidsRestOncePerBuyer) {
  // No ask can be priced under 1, so a limit of 0 never crosses: every
  // buyer that meets an ask rests one bid and keeps it. A bid at limit 0
  // is still a resting bid — re-posting it refreshes it, never counts a
  // second one.
  auto cfg = book_config(24);
  cfg.book.cross = p2p::ProtocolConfig::OrderBookConfig::CrossStrategy::kLimit;
  cfg.book.limit_price = 0;
  sim::Simulator sim;
  p2p::StreamingProtocol proto(cfg, sim);
  proto.start();
  sim.run_until(100.0);

  const auto& metrics = proto.metrics();
  EXPECT_EQ(metrics.counter("book.fills"), 0u);
  EXPECT_GT(metrics.counter("book.bids_posted"), 0u);
  EXPECT_LE(metrics.counter("book.bids_posted"), cfg.initial_peers);
  EXPECT_EQ(metrics.counter("book.bids_matched"), 0u);
}

TEST(OrderBookProtocol, HugeUploadBudgetsSaturateTheAsk) {
  // An ask's quantity is the seller's upload budget floored into 32 bits.
  // A budget of 2^32 or more saturates at UINT32_MAX; a bare cast there is
  // undefined, and on x86-64 it posted 0 units at 2^32 and 1e20 and one
  // unit at 2^32 + 1.5, so the book lost its supply. Each of these budgets
  // outlasts every round's demand, so the four markets trade alike.
  std::uint64_t fills = 0;
  std::uint64_t volume = 0;
  for (const double capacity :
       {4294967295.0, 4294967296.0, 4294967297.5, 1e20}) {
    SCOPED_TRACE(::testing::Message() << "upload_capacity " << capacity);
    auto cfg = book_config(25);
    cfg.upload_capacity = capacity;
    sim::Simulator sim;
    p2p::StreamingProtocol proto(cfg, sim);
    proto.start();
    sim.run_until(100.0);
    const auto& metrics = proto.metrics();
    if (fills == 0) {
      fills = metrics.counter("book.fills");
      volume = metrics.counter("book.volume");
      ASSERT_GT(fills, 0u);
      ASSERT_GT(volume, 0u);
    }
    EXPECT_EQ(metrics.counter("book.fills"), fills);
    EXPECT_EQ(metrics.counter("book.volume"), volume);
  }
}

TEST(OrderBookProtocol, BestAskWalksEndAtTheFloor) {
  // The adv03_stake market (fixed-markup asks, churn, whitewashers and
  // staked seeders) at a tenth of its horizon: best-ask buyers whose
  // budget falls under the cheapest resting ask end their walk there.
  // Limit crossing rests bids on over-limit visits, so it walks on.
  using Cross = p2p::ProtocolConfig::OrderBookConfig::CrossStrategy;
  p2p::ProtocolConfig cfg =
      scenario::ScenarioRegistry::builtin().get("adv03_stake").config.protocol;
  ASSERT_EQ(cfg.book.cross, Cross::kBestAsk);
  for (const Cross cross : {Cross::kBestAsk, Cross::kLimit}) {
    SCOPED_TRACE(::testing::Message() << "cross " << static_cast<int>(cross));
    cfg.book.cross = cross;
    sim::Simulator sim;
    p2p::StreamingProtocol proto(cfg, sim);
    proto.start();
    sim.run_until(800.0);
    const auto& metrics = proto.metrics();
    EXPECT_GT(metrics.counter("book.fills"), 0u);
    if (cross == Cross::kBestAsk) {
      EXPECT_GT(metrics.counter("purchase.best_ask_stops"), 0u);
    } else {
      EXPECT_EQ(metrics.counter("purchase.best_ask_stops"), 0u);
    }
  }
}

TEST(OrderBookProtocol, DirectModeCarriesNoBook) {
  sim::Simulator sim;
  p2p::ProtocolConfig cfg;
  cfg.initial_peers = 40;
  cfg.max_peers = 40;
  cfg.initial_credits = 30;
  cfg.seed = 23;
  p2p::StreamingProtocol proto(cfg, sim);
  proto.start();
  sim.run_until(100.0);
  EXPECT_EQ(proto.order_book(), nullptr);
  EXPECT_EQ(proto.metrics().counter("book.fills"), 0u);
  EXPECT_EQ(proto.metrics().counter("purchase.best_ask_stops"), 0u);
}

}  // namespace
}  // namespace creditflow::market
