// Tests for the extension features: auction seller choice (paper future
// work) and periodic credit injection (the inflation remedy), plus
// randomized fuzz checks of the ledger and a peer's buffer window against
// reference implementations.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "core/market.hpp"
#include "p2p/ledger.hpp"
#include "p2p/peer.hpp"
#include "util/rng.hpp"

namespace creditflow {
namespace {

core::MarketConfig base_config() {
  core::MarketConfig cfg;
  cfg.protocol.initial_peers = 64;
  cfg.protocol.max_peers = 64;
  cfg.protocol.initial_credits = 60;
  cfg.protocol.seed = 9;
  cfg.horizon = 200.0;
  cfg.snapshot_interval = 50.0;
  return cfg;
}

TEST(AuctionSellerChoice, RunsAndPaysLowerAveragePrices) {
  auto run_mean_price = [](p2p::ProtocolConfig::SellerChoice choice) {
    auto cfg = base_config();
    cfg.protocol.pricing.kind = econ::PricingKind::kPoisson;
    cfg.protocol.pricing.poisson_mean = 1.0;
    cfg.protocol.seller_choice = choice;
    core::CreditMarket market(cfg);
    const auto report = market.run();
    EXPECT_TRUE(report.ledger_conserved);
    EXPECT_GT(report.counter("market.transactions"), 0u);
    return static_cast<double>(report.counter("market.volume")) /
           static_cast<double>(report.counter("market.transactions"));
  };
  const double uniform_price = run_mean_price(
      p2p::ProtocolConfig::SellerChoice::kAvailabilityUniform);
  const double auction_price =
      run_mean_price(p2p::ProtocolConfig::SellerChoice::kCheapestAsk);
  // Buying from the cheapest owner strictly lowers the mean paid price.
  EXPECT_LT(auction_price, uniform_price);
}

TEST(CreditInjection, GrowsMoneySupplyAndIsAudited) {
  auto cfg = base_config();
  cfg.protocol.injection.enabled = true;
  cfg.protocol.injection.interval_seconds = 20.0;
  cfg.protocol.injection.credits_per_peer = 2;
  core::CreditMarket market(cfg);
  const auto report = market.run();
  EXPECT_TRUE(report.ledger_conserved);
  // 200 s / 20 s = 10 injections of 2 credits to 64 peers, on top of the
  // 64 * 60 endowment.
  const auto& ledger = market.protocol().ledger();
  EXPECT_EQ(ledger.total_minted(), 64u * 60u + 10u * 2u * 64u);
  EXPECT_GT(report.final_wealth.mean, 60.0);
}

TEST(CreditInjection, RejectsBadPolicy) {
  auto cfg = base_config();
  cfg.protocol.injection.enabled = true;
  cfg.protocol.injection.interval_seconds = 0.0;
  sim::Simulator sim;
  EXPECT_THROW(p2p::StreamingProtocol(cfg.protocol, sim),
               util::PreconditionError);
}

// ---- Fuzz: CreditLedger against a simple map-based reference ------------

TEST(LedgerFuzz, MatchesReferenceUnderRandomOperations) {
  util::Rng rng(4242);
  p2p::CreditLedger ledger(32);
  std::map<p2p::PeerId, std::uint64_t> reference;
  std::uint64_t ref_treasury = 0;
  std::uint64_t ref_minted = 0;
  std::uint64_t ref_burned = 0;

  for (int op = 0; op < 20000; ++op) {
    const auto peer = static_cast<p2p::PeerId>(rng.uniform_index(32));
    switch (rng.uniform_index(5)) {
      case 0: {  // mint
        const auto amount = rng.uniform_index(50);
        ledger.mint(peer, amount);
        reference[peer] += amount;
        ref_minted += amount;
        break;
      }
      case 1: {  // transfer
        const auto to = static_cast<p2p::PeerId>(rng.uniform_index(32));
        const auto amount = rng.uniform_index(80);
        const bool ok = ledger.transfer(peer, to, amount);
        if (reference[peer] >= amount) {
          EXPECT_TRUE(ok);
          reference[peer] -= amount;
          reference[to] += amount;
        } else {
          EXPECT_FALSE(ok);
        }
        break;
      }
      case 2: {  // burn
        const auto burned = ledger.burn_all(peer);
        EXPECT_EQ(burned, reference[peer]);
        ref_burned += reference[peer];
        reference[peer] = 0;
        break;
      }
      case 3: {  // tax
        const auto want = rng.uniform_index(30);
        const auto got = ledger.collect_tax(peer, want);
        const auto expected = std::min<std::uint64_t>(want, reference[peer]);
        EXPECT_EQ(got, expected);
        reference[peer] -= expected;
        ref_treasury += expected;
        break;
      }
      case 4: {  // redistribute when possible
        if (ref_treasury >= 32) {
          std::vector<p2p::PeerId> everyone;
          for (p2p::PeerId i = 0; i < 32; ++i) everyone.push_back(i);
          ledger.redistribute(everyone);
          for (p2p::PeerId i = 0; i < 32; ++i) ++reference[i];
          ref_treasury -= 32;
        }
        break;
      }
    }
    ASSERT_TRUE(ledger.audit());
  }
  for (p2p::PeerId i = 0; i < 32; ++i) {
    EXPECT_EQ(ledger.balance(i), reference[i]);
  }
  EXPECT_EQ(ledger.treasury(), ref_treasury);
  EXPECT_EQ(ledger.total_minted(), ref_minted);
  EXPECT_EQ(ledger.total_burned(), ref_burned);
}

// ---- Fuzz: a PeerTable window against a std::set reference ---------------

TEST(BufferMapFuzz, MatchesSetReference) {
  util::Rng rng(777);
  // One- and two-word rows, full and partial last words; the window's base
  // wraps each ring many times, and now and then jumps past the window.
  // Slot 1 of three is fuzzed, so a row that spills into a neighbor's
  // words shows in theirs.
  for (const std::size_t capacity : {24, 48, 64, 65, 96}) {
    SCOPED_TRACE(::testing::Message() << "capacity " << capacity);
    p2p::PeerTable peers(3, capacity);
    constexpr p2p::PeerId kSlot = 1;
    std::set<p2p::ChunkId> reference;
    p2p::ChunkId base = 0;
    const auto held_bits = [&](p2p::PeerId slot) {
      std::size_t n = 0;
      for (const std::uint64_t w : peers.owned(slot)) {
        n += static_cast<std::size_t>(std::popcount(w));
      }
      return n;
    };

    for (int op = 0; op < 30000; ++op) {
      switch (rng.uniform_index(3)) {
        case 0: {  // set a chunk near the window
          const auto c = base + rng.uniform_index(capacity + 6);
          const bool in_window = c >= base && c < base + capacity;
          const bool fresh = in_window && reference.count(c) == 0;
          ASSERT_EQ(peers.set(kSlot, c), fresh) << "op " << op;
          if (fresh) reference.insert(c);
          break;
        }
        case 1: {  // advance by a small step, or rarely past the window
          const auto step = rng.uniform_index(16) == 0
                                ? rng.uniform_index(2 * capacity)
                                : rng.uniform_index(4);
          base += step;
          std::erase_if(reference, [&](p2p::ChunkId c) { return c < base; });
          peers.advance(kSlot, base);
          break;
        }
        case 2: {  // query
          const auto c = base + rng.uniform_index(capacity + 6);
          ASSERT_EQ(peers.has(kSlot, c), reference.count(c) == 1)
              << "op " << op;
          break;
        }
      }
      // The held count is the popcount of the slot's row, and the other
      // slots' rows stay empty.
      ASSERT_EQ(peers.count(kSlot), reference.size()) << "op " << op;
      ASSERT_EQ(held_bits(kSlot), reference.size()) << "op " << op;
      ASSERT_EQ(held_bits(0) + held_bits(2), 0u) << "op " << op;
    }
    // Final cross-check of the whole window.
    ASSERT_EQ(peers.base(kSlot), base);
    std::size_t missing = 0;
    for (p2p::ChunkId c = base; c < base + capacity; ++c) {
      EXPECT_EQ(peers.has(kSlot, c), reference.count(c) == 1)
          << "chunk " << c;
      if (!peers.has(kSlot, c)) ++missing;
    }
    EXPECT_EQ(missing + peers.count(kSlot), capacity);
  }
}

}  // namespace
}  // namespace creditflow
