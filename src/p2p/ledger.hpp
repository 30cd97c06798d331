// CreditFlow: the credit ledger — every virtual-currency movement in the
// market flows through here, so conservation is checkable in one place.
//
// Closed markets (no churn) mint each peer's initial endowment once and then
// only transfer; the invariant Σ balances + Σ stakes + treasury ==
// minted − burned holds at every instant and is asserted by tests and by
// audit() calls sprinkled through the protocol. Stake accounts (the bonded
// credit behind stake-backed seeding) are part of the money supply: locking
// moves balance → stake, releasing moves it back, slashing forfeits a
// fraction to the treasury — none of the three mints or burns.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/assert.hpp"

namespace creditflow::p2p {

using PeerId = std::uint32_t;
using Credits = std::uint64_t;

/// Balances for a slot-addressed peer population plus a system treasury.
class CreditLedger {
 public:
  explicit CreditLedger(std::size_t max_peers);

  [[nodiscard]] std::size_t capacity() const { return balance_.size(); }

  /// Create `amount` new credits in `peer`'s account (join endowment).
  void mint(PeerId peer, Credits amount);
  /// Destroy the peer's entire balance (peer departure takes credits along);
  /// returns the amount removed.
  Credits burn_all(PeerId peer);

  /// Move credits between peers; returns false (and does nothing) when the
  /// payer's balance is insufficient. Transfers of 0 succeed trivially.
  /// Inline: one call per purchase attempt, millions per simulated run.
  [[nodiscard]] bool transfer(PeerId from, PeerId to, Credits amount) {
    CF_EXPECTS(from < balance_.size() && to < balance_.size());
    if (balance_[from] < amount) return false;
    balance_[from] -= amount;
    balance_[to] += amount;
    return true;
  }

  /// Move credits from a peer into the treasury (taxation); clamps to the
  /// available balance and returns the amount actually collected.
  Credits collect_tax(PeerId peer, Credits amount);

  // ---- Stake accounts (bonded credit, stake-backed seeding) --------------
  /// Top the peer's stake up toward `target` from its balance (clamped to
  /// what the balance covers); returns the amount actually locked.
  Credits lock_stake(PeerId peer, Credits target);
  /// Forfeit `fraction` (rounded) of the peer's stake to the treasury and
  /// release the remainder to its balance; returns the slashed amount.
  Credits slash_stake(PeerId peer, double fraction);
  [[nodiscard]] Credits staked(PeerId peer) const {
    CF_EXPECTS(peer < balance_.size());
    return staked_[peer];
  }
  [[nodiscard]] Credits total_staked() const { return staked_total_; }

  /// Move one credit from the treasury to each peer in `recipients`;
  /// requires treasury >= recipients.size().
  void redistribute(std::span<const PeerId> recipients);

  [[nodiscard]] Credits balance(PeerId peer) const {
    CF_EXPECTS(peer < balance_.size());
    return balance_[peer];
  }
  [[nodiscard]] Credits treasury() const { return treasury_; }
  [[nodiscard]] Credits total_minted() const { return minted_; }
  [[nodiscard]] Credits total_burned() const { return burned_; }

  /// Sum of all balances (O(n)); excludes bonded stake.
  [[nodiscard]] Credits circulating() const;
  /// Conservation invariant:
  /// circulating + total_staked + treasury == minted − burned.
  [[nodiscard]] bool audit() const;

  /// Balances as doubles for the econ metrics, restricted to `alive` slots,
  /// into a caller-owned buffer (cleared first) so periodic sampling does
  /// not allocate.
  void snapshot(std::span<const PeerId> alive, std::vector<double>& out) const;

 private:
  std::vector<Credits> balance_;
  std::vector<Credits> staked_;
  Credits staked_total_ = 0;
  Credits treasury_ = 0;
  Credits minted_ = 0;
  Credits burned_ = 0;
};

}  // namespace creditflow::p2p
