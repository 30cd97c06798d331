// Tests for the purchase phase's seller candidates (p2p/purchase_candidates):
//  * a differential test that drives PurchaseCandidates directly on random
//    states — every mask width, empty candidate sets, windows on both
//    sides of one word, wrapped window bases, trimmed shopping lists, the
//    order-book seller test (upload budget and a resting ask) and
//    mid-phase seller drains — against a per-chunk neighbor scan, the
//    naive reference the production path replaced: the walk must visit
//    exactly the wanted chunks the scan finds sellers for, newest first;
//  * eight pinned markets: the FNV-1a hash of each one's full trace and
//    final balances, captured while the naive per-chunk scan still ran in
//    production and reproduced these markets transaction for transaction;
//  * pinned order-book markets, hashed the same way, captured while the
//    book still crossed by its own per-chunk neighbor scan;
//  * the fill-weighted, cheapest-ask and limit-crossing seller rules on
//    the hub overlay, hashed the same way, captured while the direct
//    choice and the book crossing were still two separate switches;
//  * shopping lists trimmed to the newest max_purchase_attempts chunks,
//    hashed the same way, captured while the purchase phase still walked
//    a reversed missing-chunk list;
//  * fractional per-peer upload budgets (lognormal capacities) in direct
//    and order-book markets, hashed the same way, captured while a budget
//    was still a double that each sale lowered by 1.0;
//  * the phase-width counters: a buyer with no candidates counts as a
//    one-word phase when its window fits one word;
//  * the ownership-row invariant: PeerTable::owned() holds exactly the
//    chunks has() reports, and every departed or unused slot's row is zero.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <string_view>
#include <vector>

#include "p2p/protocol.hpp"
#include "p2p/purchase_candidates.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace creditflow::p2p {
namespace {

/// The reference: scan the neighbor list for one chunk, keeping the owners
/// that pass the seller test, in neighbor-list order.
template <typename IsSeller>
std::vector<PeerId> scan_owners(const PeerTable& peers,
                                const std::vector<PeerId>& neighbors,
                                const IsSeller& is_seller, ChunkId chunk) {
  std::vector<PeerId> owners;
  for (const PeerId nbr : neighbors) {
    if (is_seller(nbr) && peers.has(nbr, chunk)) {
      owners.push_back(nbr);
    }
  }
  return owners;
}

template <std::size_t Words, typename IsSeller>
void expect_matches_scan(const PurchaseCandidates& candidates,
                         const PeerTable& peers,
                         const std::vector<PeerId>& neighbors,
                         const IsSeller& is_seller,
                         const std::vector<ChunkId>& wanted) {
  for (const ChunkId c : wanted) {
    const std::vector<PeerId> expected =
        scan_owners(peers, neighbors, is_seller, c);
    const auto sellers = candidates.sellers<Words>(c);
    ASSERT_EQ(sellers.count(), expected.size()) << "chunk " << c;
    std::vector<PeerId> walked;
    sellers.for_each([&](PeerId p) { walked.push_back(p); });
    ASSERT_EQ(walked, expected) << "chunk " << c;
    for (std::size_t n = 0; n < expected.size(); ++n) {
      ASSERT_EQ(sellers.nth(n), expected[n]) << "chunk " << c << " n " << n;
    }
  }
}

/// Check the phase's own width and the dynamic walk (valid at any width).
template <typename IsSeller>
void expect_matches_scan(const PurchaseCandidates& candidates,
                         const PeerTable& peers,
                         const std::vector<PeerId>& neighbors,
                         const IsSeller& is_seller,
                         const std::vector<ChunkId>& wanted) {
  if (candidates.width() == 1) {
    expect_matches_scan<1>(candidates, peers, neighbors, is_seller, wanted);
  } else if (candidates.width() == 2) {
    expect_matches_scan<2>(candidates, peers, neighbors, is_seller, wanted);
  }
  expect_matches_scan<PurchaseCandidates::kDynamicWords>(
      candidates, peers, neighbors, is_seller, wanted);
}

/// The chunks a buyer phase must visit, newest first: the newest
/// `max_wanted` of `wanted` (newest first) that some neighbor owns and can
/// sell.
template <typename IsSeller>
std::vector<ChunkId> reachable_by_scan(const PeerTable& peers,
                                       const std::vector<PeerId>& neighbors,
                                       const IsSeller& is_seller,
                                       const std::vector<ChunkId>& wanted,
                                       std::size_t max_wanted) {
  std::vector<ChunkId> reachable;
  for (std::size_t k = 0; k < wanted.size() && k < max_wanted; ++k) {
    if (!scan_owners(peers, neighbors, is_seller, wanted[k]).empty()) {
      reachable.push_back(wanted[k]);
    }
  }
  return reachable;
}

std::vector<ChunkId> walked(const PurchaseCandidates& candidates) {
  std::vector<ChunkId> chunks;
  candidates.for_each_reachable([&](ChunkId c) {
    chunks.push_back(c);
    return true;
  });
  return chunks;
}

TEST(PurchaseCandidates, MatchesPerChunkNeighborScan) {
  util::Rng rng(2012);
  PurchaseCandidates candidates;  // reused across phases, as in a market
  for (const std::size_t eligible : {0, 1, 63, 64, 65, 128, 129, 250}) {
    for (const std::size_t window : {4, 48, 64, 65, 96, 200}) {
      // One window base at slot 0 and one that wraps the ring.
      for (const ChunkId base :
           {ChunkId{64 * window}, ChunkId{1000 + rng.uniform_index(window)}}) {
        SCOPED_TRACE(::testing::Message() << "eligible " << eligible
                                          << " window " << window << " base "
                                          << base);
        // The seller test is the order-book market's: upload budget >= 1
        // and a resting ask. Four more non-sellers than sellers (with
        // budget but no ask, with an ask but no budget, or neither), a few
        // peers outside the neighbor list, and the buyer, last.
        const std::size_t num_neighbors = 2 * eligible + 4;
        const std::size_t num_peers = num_neighbors + 8;
        const auto buyer = static_cast<PeerId>(num_peers);
        PeerTable peers(num_peers + 1, window);
        for (PeerId id = 0; id < num_peers; ++id) {
          peers.reset_window(id, base);
          const double fill = rng.uniform();  // empty to full rows
          for (ChunkId c = base; c < base + window; ++c) {
            if (rng.bernoulli(fill)) peers.set(id, c);
          }
        }
        std::vector<PeerId> ids(num_peers);
        std::iota(ids.begin(), ids.end(), PeerId{0});
        rng.shuffle(ids);
        std::vector<double> budget(num_peers, 0.0);
        std::vector<char> ask(num_peers, 0);
        std::vector<PeerId> neighbors(ids.begin(),
                                      ids.begin() + num_neighbors);
        for (std::size_t k = 0; k < neighbors.size(); ++k) {
          const PeerId id = neighbors[k];
          // Bit 0: no upload budget, bit 1: no resting ask. Sellers lack
          // neither; a non-seller lacks one or both.
          const std::size_t lacks =
              k < eligible ? 0 : 1 + rng.uniform_index(3);
          budget[id] = (lacks & 1) != 0 ? 0.99 * rng.uniform()
                                        : 1.0 + 3.0 * rng.uniform();
          ask[id] = (lacks & 2) != 0 ? 0 : 1;
        }
        const auto is_seller = [&](PeerId id) {
          return budget[id] >= 1.0 && ask[id] != 0;
        };
        rng.shuffle(neighbors);
        // A random shopping list, freshest first as the protocol buys; the
        // buyer holds every other chunk of the window.
        std::vector<ChunkId> wanted;
        for (ChunkId c = base + window; c-- > base;) {
          if (rng.bernoulli(0.6)) wanted.push_back(c);
        }
        if (wanted.empty()) wanted.push_back(base);
        peers.reset_window(buyer, base);
        for (ChunkId c = base; c < base + window; ++c) {
          if (std::find(wanted.begin(), wanted.end(), c) == wanted.end()) {
            peers.set(buyer, c);
          }
        }
        ASSERT_EQ(window - peers.count(buyer), wanted.size());
        const auto build = [&](std::size_t max_wanted) {
          candidates.build(peers, buyer, neighbors, is_seller, max_wanted);
        };

        build(window);
        ASSERT_EQ(candidates.eligible().size(), eligible);
        // At least one mask word, so an empty set still fits one word.
        const std::size_t words =
            std::max<std::size_t>(1, (eligible + 63) / 64);
        const std::size_t width =
            window <= 64 && words == 1 ? 1
            : words == 2               ? 2
                                       : PurchaseCandidates::kDynamicWords;
        ASSERT_EQ(candidates.width(), width);
        const std::vector<ChunkId> reachable = reachable_by_scan(
            peers, neighbors, is_seller, wanted, wanted.size());
        ASSERT_EQ(walked(candidates), reachable);
        expect_matches_scan(candidates, peers, neighbors, is_seller,
                            reachable);
        // The walk stops when the visitor says so.
        std::size_t visits = 0;
        candidates.for_each_reachable([&](ChunkId) { return ++visits < 2; });
        ASSERT_EQ(visits, std::min<std::size_t>(2, reachable.size()));

        // Mid-phase drains: a seller's budget drops below 1 or its ask
        // fills out, and it leaves every mask, exactly as the per-chunk
        // seller test would skip it. The walk still visits every chunk
        // reachable at build time; a drained chunk has no candidates.
        for (int drain = 0; eligible > 0 && drain < 4; ++drain) {
          const PeerId seller =
              candidates.eligible()[rng.uniform_index(eligible)];
          if (drain % 2 == 0) {
            budget[seller] = 0.0;
          } else {
            ask[seller] = 0;
          }
          candidates.remove(seller);
          ASSERT_EQ(walked(candidates), reachable);
          expect_matches_scan(candidates, peers, neighbors, is_seller,
                              reachable);
        }

        // A shorter list than the buyer misses keeps its newest chunks.
        if (wanted.size() > 1) {
          const std::size_t max_wanted =
              1 + rng.uniform_index(wanted.size() - 1);
          build(max_wanted);
          const std::vector<ChunkId> newest = reachable_by_scan(
              peers, neighbors, is_seller, wanted, max_wanted);
          ASSERT_EQ(walked(candidates), newest) << "max " << max_wanted;
          expect_matches_scan(candidates, peers, neighbors, is_seller,
                              newest);
        }
      }
    }
  }
}

ProtocolConfig base_config(std::uint64_t seed) {
  ProtocolConfig cfg;
  cfg.initial_peers = 80;
  cfg.max_peers = 120;
  cfg.initial_credits = 40;
  cfg.seed = seed;
  return cfg;
}

/// Fold one value's bytes into a running FNV-1a hash.
template <typename T>
std::uint64_t mix(std::uint64_t h, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  return util::fnv1a64(std::string_view(bytes, sizeof(T)), h);
}

constexpr std::uint64_t kHashBasis = 0xcbf29ce484222325ULL;

/// Run `cfg` for `horizon` seconds with full trace recording and fold every
/// trace record (time, buyer, seller, chunk, price) and the final balances
/// into the running FNV-1a hash `h`. `inspect`, if set, sees the finished
/// market first (to check that it exercised what it pins).
std::uint64_t market_hash(
    const ProtocolConfig& cfg, double horizon, std::uint64_t h = kHashBasis,
    const std::function<void(const StreamingProtocol&)>& inspect = {}) {
  sim::Simulator sim;
  StreamingProtocol proto(cfg, sim);
  proto.trace().set_keep_records(true);
  proto.start();
  sim.run_until(horizon);
  if (inspect) inspect(proto);
  // Only a best-ask walk ends at the book's floor.
  if (cfg.market_mode != ProtocolConfig::MarketMode::kOrderBook ||
      cfg.book.cross != ProtocolConfig::OrderBookConfig::CrossStrategy::kBestAsk) {
    EXPECT_EQ(proto.metrics().counter("purchase.best_ask_stops"), 0u);
  }
  for (const TransactionRecord& r : proto.trace().records()) {
    h = mix(h, r.time);
    h = mix(h, r.buyer);
    h = mix(h, r.seller);
    h = mix(h, r.chunk);
    h = mix(h, r.price);
  }
  for (const double b : proto.balance_snapshot()) h = mix(h, b);
  return h;
}

TEST(PinnedMarkets, AcrossSeeds) {
  std::uint64_t h = kHashBasis;
  for (const std::uint64_t seed : {1ull, 17ull, 2012ull}) {
    h = market_hash(base_config(seed), 60.0, h);
  }
  EXPECT_EQ(h, 0xf3b84ec2d12c1b11ULL);
}

TEST(PinnedMarkets, UnderChurn) {
  std::uint64_t h = kHashBasis;
  for (const std::uint64_t seed : {3ull, 99ull}) {
    auto cfg = base_config(seed);
    cfg.churn.enabled = true;
    cfg.churn.arrival_rate = 0.8;
    cfg.churn.mean_lifespan = 40.0;
    cfg.churn.join_links = 6;
    h = market_hash(cfg, 120.0, h);
  }
  EXPECT_EQ(h, 0xa696957b4ed78b55ULL);
}

TEST(PinnedMarkets, FillWeighted) {
  auto cfg = base_config(7);
  cfg.seller_choice = ProtocolConfig::SellerChoice::kFillWeighted;
  cfg.pricing.kind = econ::PricingKind::kPoisson;
  cfg.pricing.poisson_mean = 1.0;
  EXPECT_EQ(market_hash(cfg, 60.0), 0x248c5f428b852814ULL);
}

TEST(PinnedMarkets, CheapestAsk) {
  auto cfg = base_config(11);
  cfg.seller_choice = ProtocolConfig::SellerChoice::kCheapestAsk;
  cfg.pricing.kind = econ::PricingKind::kPerSeller;
  EXPECT_EQ(market_hash(cfg, 60.0), 0xbcba93ae237199aaULL);
}

/// The hub-buyer regime: a dense overlay whose mean degree exceeds 64, so
/// most buyers carry more than 64 budgeted neighbors and the purchase
/// phase takes the two-word or generic masks.
ProtocolConfig hub_config(std::uint64_t seed) {
  auto cfg = base_config(seed);
  // The bootstrap generator caps hub degrees near 4·sqrt(n)+8, so pushing
  // the mean past 64 requires a swarm large enough for ~106-degree hubs.
  cfg.initial_peers = 600;
  cfg.max_peers = 640;
  cfg.overlay_mean_degree = 80.0;
  return cfg;
}

/// The structural premise of the hub markets: the overlay actually
/// produced buyers with more than 64 neighbors (otherwise they would
/// silently exercise only the one-word masks and pin nothing more).
void expect_has_hub_buyers(const ProtocolConfig& cfg) {
  sim::Simulator sim;
  StreamingProtocol proto(cfg, sim);
  proto.start();  // the bootstrap overlay is built at start()
  std::size_t hubs = 0;
  for (PeerId id = 0; id < cfg.initial_peers; ++id) {
    if (proto.overlay().degree(id) > 64) ++hubs;
  }
  EXPECT_GT(hubs, cfg.initial_peers / 2)
      << "overlay too sparse to exercise the multi-word masks";
}

TEST(PinnedMarkets, HubDegrees) {
  expect_has_hub_buyers(hub_config(1));
  std::uint64_t h = kHashBasis;
  for (const std::uint64_t seed : {1ull, 29ull}) {
    h = market_hash(hub_config(seed), 60.0, h);
  }
  EXPECT_EQ(h, 0x93278770207d5574ULL);
}

TEST(PinnedMarkets, HubDegreesSupplyLimited) {
  // Hubs in the backlogged regime: long shopping lists and drained sellers
  // force the deepest generic mask walks (window > 64 chunks AND > 64
  // neighbors).
  auto cfg = hub_config(41);
  cfg.stream_rate = 2.4;
  cfg.upload_capacity = 2.0;
  cfg.window_chunks = 96;
  cfg.max_purchase_attempts = 96;
  cfg.base_spend_rate = 7.2;
  expect_has_hub_buyers(cfg);
  EXPECT_EQ(market_hash(cfg, 80.0), 0xb46c5293425af860ULL);
}

TEST(PinnedMarkets, HubDegreesUnderChurn) {
  // Churn on a dense overlay: joins attach many links at once, and a
  // departed slot's stale ownership bits would surface as a divergence.
  auto cfg = hub_config(53);
  cfg.churn.enabled = true;
  cfg.churn.arrival_rate = 1.0;
  cfg.churn.mean_lifespan = 40.0;
  cfg.churn.join_links = 70;  // arrivals become hubs immediately
  EXPECT_EQ(market_hash(cfg, 100.0), 0x07a681895c547595ULL);
}

/// The backlogged regime (capacity < stream rate): long shopping lists,
/// drained sellers, reserve-credit caps.
ProtocolConfig supply_limited_config() {
  auto cfg = base_config(23);
  cfg.stream_rate = 2.4;
  cfg.upload_capacity = 2.0;
  cfg.window_chunks = 96;
  cfg.max_purchase_attempts = 96;
  cfg.base_spend_rate = 7.2;
  cfg.tax.enabled = true;
  cfg.tax.rate = 0.15;
  cfg.tax.threshold = 30.0;
  return cfg;
}

TEST(PinnedMarkets, SupplyLimited) {
  EXPECT_EQ(market_hash(supply_limited_config(), 80.0),
            0x375376352e13e421ULL);
}

TEST(PinnedMarkets, TruncatedShoppingList) {
  // max_purchase_attempts below the window: a buyer shops only for its
  // newest missing chunks. Each market must differ from the same market
  // shopping the whole window, or the trim would pin nothing.
  auto cfg = base_config(5);
  cfg.max_purchase_attempts = 8;
  const std::uint64_t short_list = market_hash(cfg, 60.0);
  cfg.max_purchase_attempts = cfg.window_chunks;
  EXPECT_NE(short_list, market_hash(cfg, 60.0));
  EXPECT_EQ(short_list, 0x73e864e656d24fbfULL);

  auto backlog = supply_limited_config();
  backlog.max_purchase_attempts = 20;
  const std::uint64_t short_backlog = market_hash(backlog, 80.0);
  backlog.max_purchase_attempts = backlog.window_chunks;
  EXPECT_NE(short_backlog, market_hash(backlog, 80.0));
  EXPECT_EQ(short_backlog, 0x20c85ebd73601440ULL);
}

/// An order-book market in which "upload budget >= 1" and "has a resting
/// ask" differ: half the peers never post asks, staked seeders whose bond
/// runs short drop theirs, and whitewashers cycle identities under churn.
ProtocolConfig book_config(std::uint64_t seed) {
  auto cfg = base_config(seed);
  cfg.market_mode = ProtocolConfig::MarketMode::kOrderBook;
  cfg.book.seller_fraction = 0.5;
  cfg.book.limit_price = 2;
  cfg.churn.enabled = true;
  cfg.churn.arrival_rate = 0.8;
  cfg.churn.mean_lifespan = 40.0;
  cfg.churn.join_links = 6;
  cfg.strat.staked_fraction = 0.2;
  cfg.strat.stake_amount = 25;
  cfg.strat.whitewash_fraction = 0.1;
  cfg.strat.whitewash_threshold = 10.0;
  return cfg;
}

TEST(PinnedMarkets, OrderBookCrossings) {
  using Book = ProtocolConfig::OrderBookConfig;
  struct Row {
    Book::AskPricing pricing;
    Book::CrossStrategy cross;
    std::uint64_t hash;
  };
  // Limit crossing runs under adaptive pricing only: with a fixed markup
  // every ask has one price, so a limit is either always or never met.
  const Row rows[] = {
      {Book::AskPricing::kFixedMarkup, Book::CrossStrategy::kBestAsk,
       0x75e7d9a15c6d1f7eULL},
      {Book::AskPricing::kFixedMarkup, Book::CrossStrategy::kFillWeighted,
       0x33e4a1fe565f2014ULL},
      {Book::AskPricing::kAdaptive, Book::CrossStrategy::kBestAsk,
       0x65279ff6c8820deaULL},
      {Book::AskPricing::kAdaptive, Book::CrossStrategy::kFillWeighted,
       0x650c29c7f698e744ULL},
      {Book::AskPricing::kAdaptive, Book::CrossStrategy::kLimit,
       0x636394f723d48debULL},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(::testing::Message()
                 << "pricing " << static_cast<int>(row.pricing) << " cross "
                 << static_cast<int>(row.cross));
    auto cfg = book_config(3);
    cfg.book.ask_pricing = row.pricing;
    cfg.book.cross = row.cross;
    const auto inspect = [&](const StreamingProtocol& proto) {
      const auto& m = proto.metrics();
      EXPECT_GT(m.counter("book.fills"), 1000u);
      EXPECT_GT(m.counter("book.asks_expired"), 0u);
      EXPECT_GT(m.counter("strat.whitewash_resets"), 0u);
      if (row.cross == Book::CrossStrategy::kLimit) {
        EXPECT_GT(m.counter("book.bids_posted"), 0u);
        EXPECT_GT(m.counter("book.bids_matched"), 0u);
      }
    };
    EXPECT_EQ(market_hash(cfg, 120.0, kHashBasis, inspect), row.hash);
  }
}

TEST(PinnedMarkets, OrderBookHubDegrees) {
  // The hub overlay in book mode, every peer an ask-posting seller: book
  // buyers with more than 64 neighbors.
  auto cfg = hub_config(1);
  cfg.market_mode = ProtocolConfig::MarketMode::kOrderBook;
  cfg.book.seller_fraction = 1.0;
  expect_has_hub_buyers(cfg);
  using Cross = ProtocolConfig::OrderBookConfig::CrossStrategy;
  cfg.book.cross = Cross::kBestAsk;
  EXPECT_EQ(market_hash(cfg, 60.0), 0xb9dc09102d103f12ULL);
  cfg.book.cross = Cross::kFillWeighted;
  EXPECT_EQ(market_hash(cfg, 60.0), 0x2d463ed07f9693d0ULL);
}

TEST(PinnedMarkets, HubSellerRules) {
  // The seller rules the pins above cover only on the one-word overlay,
  // on the hub overlay: fill-weighted choice with Poisson prices,
  // cheapest-ask choice with per-seller prices, and adaptive limit
  // crossing. Each runs at window 48 (two-word masks) and with a 96-chunk
  // window (two-word and generic masks), the direct rows there at the
  // backlogged rates of HubDegreesSupplyLimited.
  enum class Rule { kFillWeighted, kCheapestAsk, kLimit };
  struct Row {
    Rule rule;
    std::size_t window;
    std::uint64_t hash;
  };
  const Row rows[] = {
      {Rule::kFillWeighted, 48, 0xdb8c68a45a0a425dULL},
      {Rule::kFillWeighted, 96, 0x05d28f8a3dc8ed04ULL},
      {Rule::kCheapestAsk, 48, 0x8644762591fef74eULL},
      {Rule::kCheapestAsk, 96, 0x4fa1019598bde051ULL},
      {Rule::kLimit, 48, 0xe20d63c13e40a864ULL},
      {Rule::kLimit, 96, 0x6370c1bfe5227ecdULL},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(::testing::Message() << "rule " << static_cast<int>(row.rule)
                                      << " window " << row.window);
    auto cfg = hub_config(1);
    switch (row.rule) {
      case Rule::kFillWeighted:
        cfg.seller_choice = ProtocolConfig::SellerChoice::kFillWeighted;
        cfg.pricing.kind = econ::PricingKind::kPoisson;
        cfg.pricing.poisson_mean = 1.0;
        break;
      case Rule::kCheapestAsk:
        cfg.seller_choice = ProtocolConfig::SellerChoice::kCheapestAsk;
        cfg.pricing.kind = econ::PricingKind::kPerSeller;
        break;
      case Rule::kLimit:
        cfg.market_mode = ProtocolConfig::MarketMode::kOrderBook;
        cfg.book.ask_pricing =
            ProtocolConfig::OrderBookConfig::AskPricing::kAdaptive;
        cfg.book.cross = ProtocolConfig::OrderBookConfig::CrossStrategy::kLimit;
        cfg.book.seller_fraction = 1.0;
        cfg.book.limit_price = 2;
        break;
    }
    if (row.window == 96) {
      cfg.window_chunks = 96;
      cfg.max_purchase_attempts = 96;
      if (row.rule != Rule::kLimit) {
        cfg.stream_rate = 2.4;
        cfg.upload_capacity = 2.0;
        cfg.base_spend_rate = 7.2;
      }
    }
    const auto inspect = [&](const StreamingProtocol& proto) {
      const auto& m = proto.metrics();
      EXPECT_GT(m.counter("purchase.phase_two_word"), 0u);
      if (row.window == 96) {
        EXPECT_GT(m.counter("purchase.phase_generic"), 0u);
      }
      if (row.rule == Rule::kLimit) {
        EXPECT_GT(m.counter("book.bids_posted"), 0u);
        EXPECT_GT(m.counter("book.bids_matched"), 0u);
      }
    };
    EXPECT_EQ(market_hash(cfg, 60.0, kHashBasis, inspect), row.hash);
  }
}

TEST(PinnedMarkets, FractionalUploadBudgets) {
  // Lognormal upload capacities (CV 0.5) give every peer its own
  // fractional budget capacity × round_seconds, so a seller's last sale,
  // its ask's quantity and the drain that expires the ask all fall at the
  // floor of a non-integer. Direct markets choose availability-uniform and
  // cheapest-ask; book markets cross at the best ask under both ask
  // pricings (adaptive with spending rates spread too, so buyers' budgets
  // meet several resting price levels) and by limit. The last row's short
  // rounds leave some peers a budget just under one chunk.
  using Book = ProtocolConfig::OrderBookConfig;
  enum class Market {
    kDirectUniform,
    kDirectCheapest,
    kBookFixedBestAsk,
    kBookAdaptiveBestAsk,
    kBookAdaptiveLimit,
    kDirectShortRounds,
  };
  struct Row {
    Market market;
    std::uint64_t hash;
  };
  const Row rows[] = {
      {Market::kDirectUniform, 0x3028ba611833a048ULL},
      {Market::kDirectCheapest, 0x1bb0f239d8b2658dULL},
      {Market::kBookFixedBestAsk, 0x5e083385ac979484ULL},
      {Market::kBookAdaptiveBestAsk, 0xb6a1a6d488e5a6f8ULL},
      {Market::kBookAdaptiveLimit, 0x367cf11a56d807bbULL},
      {Market::kDirectShortRounds, 0x4ec3444475afab83ULL},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(::testing::Message()
                 << "market " << static_cast<int>(row.market));
    const bool book = row.market == Market::kBookFixedBestAsk ||
                      row.market == Market::kBookAdaptiveBestAsk ||
                      row.market == Market::kBookAdaptiveLimit;
    auto cfg = book ? book_config(3) : base_config(13);
    cfg.heterogeneity.upload_capacity_cv = 0.5;
    switch (row.market) {
      case Market::kDirectUniform:
        break;
      case Market::kDirectCheapest:
        cfg.seller_choice = ProtocolConfig::SellerChoice::kCheapestAsk;
        cfg.pricing.kind = econ::PricingKind::kPerSeller;
        break;
      case Market::kBookFixedBestAsk:
        cfg.book.ask_pricing = Book::AskPricing::kFixedMarkup;
        cfg.book.cross = Book::CrossStrategy::kBestAsk;
        break;
      case Market::kBookAdaptiveBestAsk:
        cfg.book.ask_pricing = Book::AskPricing::kAdaptive;
        cfg.book.cross = Book::CrossStrategy::kBestAsk;
        cfg.heterogeneity.spend_rate_cv = 0.3;
        break;
      case Market::kBookAdaptiveLimit:
        cfg.book.ask_pricing = Book::AskPricing::kAdaptive;
        cfg.book.cross = Book::CrossStrategy::kLimit;
        break;
      case Market::kDirectShortRounds:
        cfg.round_seconds = 0.45;  // mean budget 1.125 chunks
        break;
    }
    const auto inspect = [&](const StreamingProtocol& proto) {
      const auto& m = proto.metrics();
      EXPECT_GT(m.counter("market.transactions"), 1000u);
      // Fractional budgets on both sides of one chunk among the alive.
      std::size_t under_one = 0;
      std::size_t fractional = 0;
      for (const PeerId id : proto.alive_span()) {
        const double budget =
            proto.peer_table().upload_capacity(id) * cfg.round_seconds;
        if (budget < 1.0) ++under_one;
        if (budget > 1.0 && budget != std::floor(budget)) ++fractional;
      }
      EXPECT_GT(fractional, 0u);
      if (row.market == Market::kDirectShortRounds) {
        EXPECT_GT(under_one, 0u);
      }
      if (book) {
        EXPECT_GT(m.counter("book.asks_expired"), 0u);
      }
      if (row.market == Market::kBookAdaptiveBestAsk) {
        EXPECT_GT(m.counter("purchase.best_ask_stops"), 0u);
      }
      if (row.market == Market::kBookAdaptiveLimit) {
        EXPECT_GT(m.counter("book.bids_posted"), 0u);
        EXPECT_GT(m.counter("book.bids_matched"), 0u);
      }
    };
    EXPECT_EQ(market_hash(cfg, book ? 120.0 : 60.0, kHashBasis, inspect),
              row.hash);
  }
}

TEST(UploadBudgets, NaNCapacitiesSellNothing) {
  // A capacity CV of 1e200 overflows the lognormal's sigma, so each peer's
  // upload capacity comes out NaN or 0 and no budget reaches one chunk.
  // A NaN budget floors to 0 before the saturating cast, where it would
  // be undefined (the sanitizer build's float-cast-overflow check), in a
  // direct market and in a book alike.
  for (const bool book : {false, true}) {
    SCOPED_TRACE(book ? "order book" : "direct");
    auto cfg = book ? book_config(3) : base_config(13);
    cfg.heterogeneity.upload_capacity_cv = 1e200;
    sim::Simulator sim;
    StreamingProtocol proto(cfg, sim);
    proto.start();
    sim.run_until(60.0);
    std::size_t nan_capacities = 0;
    for (const PeerId id : proto.alive_span()) {
      if (std::isnan(proto.peer_table().upload_capacity(id))) {
        ++nan_capacities;
      }
    }
    EXPECT_GT(nan_capacities, 0u);
    EXPECT_EQ(proto.metrics().counter("market.transactions"), 0u);
  }
}

TEST(PurchaseCandidates, EmptySetsTakeTheOneWordPath) {
  // Every neighbor list and the window fit one word here, so every buyer
  // phase resolves through the one-word masks, including those where no
  // neighbor has upload budget left.
  const auto cfg = base_config(1);
  sim::Simulator sim;
  StreamingProtocol proto(cfg, sim);
  proto.start();
  std::size_t max_degree = 0;
  for (PeerId id = 0; id < cfg.initial_peers; ++id) {
    max_degree = std::max(max_degree, proto.overlay().degree(id));
  }
  ASSERT_LE(max_degree, 64u);
  sim.run_until(60.0);
  const auto& m = proto.metrics();
  const util::Log2Histogram* candidates = m.histogram("purchase.candidates");
  ASSERT_NE(candidates, nullptr);
  EXPECT_EQ(candidates->count(), 4800u);  // 80 buyers, 60 rounds
  EXPECT_GT(candidates->bucket_count(0), 0u)
      << "no buyer phase had an empty candidate set";
  EXPECT_EQ(m.counter("purchase.phase_one_word"), candidates->count());
  EXPECT_EQ(m.counter("purchase.phase_two_word"), 0u);
  EXPECT_EQ(m.counter("purchase.phase_generic"), 0u);
}

TEST(OwnedRows, AreBufferWordsAndZeroForDepartedSlots) {
  auto cfg = base_config(5);
  cfg.churn.enabled = true;
  cfg.churn.arrival_rate = 1.5;
  cfg.churn.mean_lifespan = 25.0;  // slots recycle many times
  cfg.churn.join_links = 5;
  sim::Simulator sim;
  StreamingProtocol proto(cfg, sim);
  proto.start();
  sim.run_until(200.0);
  EXPECT_GT(proto.metrics().counter("churn.departures"), 100u);
  const PeerTable& peers = proto.peer_table();
  std::size_t alive_checked = 0;
  for (PeerId id = 0; id < cfg.max_peers; ++id) {
    const auto row = peers.owned(id);
    if (proto.overlay().is_active(id)) {
      // Every alive window starts where the stream's window does.
      const ChunkId base = peers.base(id);
      ASSERT_EQ(base, proto.stream_head() - peers.window());
      for (ChunkId c = base; c < base + peers.window(); ++c) {
        const std::size_t s = c % peers.window();
        EXPECT_EQ(((row[s / 64] >> (s % 64)) & 1) != 0, peers.has(id, c))
            << "peer " << id << " chunk " << c;
      }
      ++alive_checked;
    } else {
      // Departed (or never-used) slots must hold no stale ownership bits.
      for (const auto word : row) EXPECT_EQ(word, 0u) << "peer " << id;
    }
  }
  EXPECT_GT(alive_checked, 0u);
}

}  // namespace
}  // namespace creditflow::p2p
