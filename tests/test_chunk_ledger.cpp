// Tests for a PeerTable slot's window (p2p/peer) and p2p/ledger
// (CreditLedger). A window of up to 64 chunks is one word of its row.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "p2p/ledger.hpp"
#include "p2p/peer.hpp"
#include "util/assert.hpp"

namespace creditflow::p2p {
namespace {

TEST(PeerWindow, SetHasWithinWindow) {
  PeerTable peers(1, 8);
  EXPECT_TRUE(peers.set(0, 0));
  EXPECT_TRUE(peers.set(0, 7));
  EXPECT_FALSE(peers.set(0, 8));
  EXPECT_TRUE(peers.set(0, 3));
  EXPECT_FALSE(peers.set(0, 3));  // duplicate
  EXPECT_TRUE(peers.has(0, 3));
  EXPECT_FALSE(peers.has(0, 4));
  EXPECT_EQ(peers.count(0), 3u);
}

TEST(PeerWindow, OutOfWindowSetRejected) {
  PeerTable peers(1, 4);
  EXPECT_FALSE(peers.set(0, 10));
  EXPECT_EQ(peers.count(0), 0u);
}

TEST(PeerWindow, AdvanceEvicts) {
  PeerTable peers(1, 4);
  peers.set(0, 0);
  peers.set(0, 1);
  peers.set(0, 3);
  EXPECT_EQ(peers.count(0), 3u);
  peers.advance(0, 2);
  EXPECT_EQ(peers.count(0), 1u);  // chunks 0 and 1 left the window
  EXPECT_FALSE(peers.has(0, 0));
  EXPECT_TRUE(peers.has(0, 3));
  EXPECT_TRUE(peers.set(0, 5));
}

TEST(PeerWindow, AdvanceBeyondCapacityClearsAll) {
  PeerTable peers(1, 4);
  peers.set(0, 0);
  peers.set(0, 1);
  EXPECT_EQ(peers.count(0), 2u);
  peers.advance(0, 100);
  EXPECT_EQ(peers.count(0), 0u);
  EXPECT_EQ(peers.base(0), 100u);
}

TEST(PeerWindow, AdvanceBackwardsThrows) {
  PeerTable peers(1, 4);
  peers.advance(0, 10);
  EXPECT_THROW(peers.advance(0, 5), util::PreconditionError);
}

TEST(PeerWindow, RingReuseAfterManyAdvances) {
  PeerTable peers(1, 4);
  for (ChunkId base = 0; base < 100; ++base) {
    peers.advance(0, base);
    EXPECT_TRUE(peers.set(0, base + 3));
  }
  // Held chunks: the last 4 bases' +3 offsets still in window.
  EXPECT_EQ(peers.count(0), 4u);
}

TEST(PeerWindow, MissingListsAscending) {
  PeerTable peers(1, 6);
  peers.set(0, 1);
  peers.set(0, 4);
  const auto missing = [&peers] {
    std::vector<ChunkId> m;
    for (ChunkId c = peers.base(0); c < peers.base(0) + peers.window();
         ++c) {
      if (!peers.has(0, c)) m.push_back(c);
    }
    EXPECT_EQ(m.size(), peers.window() - peers.count(0));
    return m;
  };
  EXPECT_EQ(missing(), (std::vector<ChunkId>{0, 2, 3, 5}));
  peers.advance(0, 2);  // the window [2, 8) wraps the ring
  EXPECT_EQ(missing(), (std::vector<ChunkId>{2, 3, 5, 6, 7}));
}

TEST(PeerWindow, FillRatio) {
  PeerTable peers(1, 10);
  for (ChunkId c = 0; c < 5; ++c) peers.set(0, c);
  EXPECT_DOUBLE_EQ(peers.fill(0), 0.5);
}

TEST(PeerWindow, ResetClears) {
  PeerTable peers(1, 4);
  peers.set(0, 0);
  peers.reset_window(0, 50);
  EXPECT_EQ(peers.count(0), 0u);
  EXPECT_EQ(peers.base(0), 50u);
  EXPECT_TRUE(peers.set(0, 51));
}

TEST(CreditLedger, MintAndBalances) {
  CreditLedger ledger(4);
  ledger.mint(0, 100);
  ledger.mint(1, 50);
  EXPECT_EQ(ledger.balance(0), 100u);
  EXPECT_EQ(ledger.balance(1), 50u);
  EXPECT_EQ(ledger.total_minted(), 150u);
  EXPECT_EQ(ledger.circulating(), 150u);
  EXPECT_TRUE(ledger.audit());
}

TEST(CreditLedger, TransferMovesCredits) {
  CreditLedger ledger(2);
  ledger.mint(0, 10);
  EXPECT_TRUE(ledger.transfer(0, 1, 4));
  EXPECT_EQ(ledger.balance(0), 6u);
  EXPECT_EQ(ledger.balance(1), 4u);
  EXPECT_TRUE(ledger.audit());
}

TEST(CreditLedger, InsufficientFundsRejected) {
  CreditLedger ledger(2);
  ledger.mint(0, 3);
  EXPECT_FALSE(ledger.transfer(0, 1, 4));
  EXPECT_EQ(ledger.balance(0), 3u);
  EXPECT_EQ(ledger.balance(1), 0u);
}

TEST(CreditLedger, ZeroTransferTriviallySucceeds) {
  CreditLedger ledger(2);
  EXPECT_TRUE(ledger.transfer(0, 1, 0));
}

TEST(CreditLedger, BurnAllRemovesFromCirculation) {
  CreditLedger ledger(2);
  ledger.mint(0, 25);
  EXPECT_EQ(ledger.burn_all(0), 25u);
  EXPECT_EQ(ledger.balance(0), 0u);
  EXPECT_EQ(ledger.circulating(), 0u);
  EXPECT_EQ(ledger.total_burned(), 25u);
  EXPECT_TRUE(ledger.audit());
}

TEST(CreditLedger, TaxAndRedistributeConserve) {
  CreditLedger ledger(3);
  ledger.mint(0, 10);
  EXPECT_EQ(ledger.collect_tax(0, 4), 4u);
  EXPECT_EQ(ledger.treasury(), 4u);
  EXPECT_TRUE(ledger.audit());
  const std::vector<PeerId> recipients = {0, 1, 2};
  ledger.redistribute(recipients);
  EXPECT_EQ(ledger.treasury(), 1u);
  EXPECT_EQ(ledger.balance(1), 1u);
  EXPECT_EQ(ledger.balance(2), 1u);
  EXPECT_TRUE(ledger.audit());
}

TEST(CreditLedger, TaxClampsToBalance) {
  CreditLedger ledger(1);
  ledger.mint(0, 3);
  EXPECT_EQ(ledger.collect_tax(0, 10), 3u);
  EXPECT_EQ(ledger.balance(0), 0u);
}

TEST(CreditLedger, RedistributeRequiresTreasury) {
  CreditLedger ledger(2);
  const std::vector<PeerId> recipients = {0, 1};
  EXPECT_THROW(ledger.redistribute(recipients), util::PreconditionError);
}

TEST(CreditLedger, SnapshotSelectsAliveSlots) {
  CreditLedger ledger(4);
  ledger.mint(0, 1);
  ledger.mint(2, 3);
  const std::vector<PeerId> alive = {0, 2};
  std::vector<double> snap = {7.0};  // cleared first
  ledger.snapshot(alive, snap);
  EXPECT_EQ(snap, (std::vector<double>{1.0, 3.0}));
}

}  // namespace
}  // namespace creditflow::p2p
