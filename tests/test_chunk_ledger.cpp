// Tests for p2p/chunk (BufferMap) and p2p/ledger (CreditLedger). A
// standalone BufferMap of up to 64 chunks views one word of storage.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "p2p/chunk.hpp"
#include "util/assert.hpp"
#include "p2p/ledger.hpp"

namespace creditflow::p2p {
namespace {

TEST(BufferMap, SetHasWithinWindow) {
  std::uint64_t words[1];
  BufferMap b(8, words);
  EXPECT_TRUE(b.in_window(0));
  EXPECT_TRUE(b.in_window(7));
  EXPECT_FALSE(b.in_window(8));
  EXPECT_TRUE(b.set(3));
  EXPECT_FALSE(b.set(3));  // duplicate
  EXPECT_TRUE(b.has(3));
  EXPECT_FALSE(b.has(4));
  EXPECT_EQ(b.count(), 1u);
}

TEST(BufferMap, OutOfWindowSetRejected) {
  std::uint64_t words[1];
  BufferMap b(4, words);
  EXPECT_FALSE(b.set(10));
  EXPECT_EQ(b.count(), 0u);
}

TEST(BufferMap, AdvanceEvicts) {
  std::uint64_t words[1];
  BufferMap b(4, words);
  b.set(0);
  b.set(1);
  b.set(3);
  const auto evicted = b.advance(2);
  EXPECT_EQ(evicted, 2u);  // chunks 0 and 1 left the window
  EXPECT_EQ(b.count(), 1u);
  EXPECT_FALSE(b.has(0));
  EXPECT_TRUE(b.has(3));
  EXPECT_TRUE(b.in_window(5));
  EXPECT_TRUE(b.set(5));
}

TEST(BufferMap, AdvanceBeyondCapacityClearsAll) {
  std::uint64_t words[1];
  BufferMap b(4, words);
  b.set(0);
  b.set(1);
  const auto evicted = b.advance(100);
  EXPECT_EQ(evicted, 2u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_EQ(b.base(), 100u);
}

TEST(BufferMap, AdvanceBackwardsThrows) {
  std::uint64_t words[1];
  BufferMap b(4, words);
  b.advance(10);
  EXPECT_THROW(b.advance(5), util::PreconditionError);
}

TEST(BufferMap, RingReuseAfterManyAdvances) {
  std::uint64_t words[1];
  BufferMap b(4, words);
  for (ChunkId base = 0; base < 100; ++base) {
    b.advance(base);
    EXPECT_TRUE(b.set(base + 3));
  }
  // Held chunks: the last 4 bases' +3 offsets still in window.
  EXPECT_EQ(b.count(), 4u);
}

TEST(BufferMap, MissingListsAscending) {
  std::uint64_t words[1];
  BufferMap b(6, words);
  b.set(1);
  b.set(4);
  const auto missing = [&b] {
    std::vector<ChunkId> m;
    for (ChunkId c = b.base(); c < b.end(); ++c) {
      if (!b.has(c)) m.push_back(c);
    }
    EXPECT_EQ(m.size(), b.capacity() - b.count());
    return m;
  };
  EXPECT_EQ(missing(), (std::vector<ChunkId>{0, 2, 3, 5}));
  b.advance(2);  // the window [2, 8) wraps the ring
  EXPECT_EQ(missing(), (std::vector<ChunkId>{2, 3, 5, 6, 7}));
}

TEST(BufferMap, FillRatio) {
  std::uint64_t words[1];
  BufferMap b(10, words);
  for (ChunkId c = 0; c < 5; ++c) b.set(c);
  EXPECT_DOUBLE_EQ(b.fill(), 0.5);
}

TEST(BufferMap, ResetClears) {
  std::uint64_t words[1];
  BufferMap b(4, words);
  b.set(0);
  b.reset(50);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_EQ(b.base(), 50u);
  EXPECT_TRUE(b.set(51));
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
