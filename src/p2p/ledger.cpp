#include "p2p/ledger.hpp"

#include "util/assert.hpp"

namespace creditflow::p2p {

CreditLedger::CreditLedger(std::size_t max_peers)
    : balance_(max_peers, 0), staked_(max_peers, 0) {
  CF_EXPECTS(max_peers > 0);
}

void CreditLedger::mint(PeerId peer, Credits amount) {
  CF_EXPECTS(peer < balance_.size());
  balance_[peer] += amount;
  minted_ += amount;
}

Credits CreditLedger::burn_all(PeerId peer) {
  CF_EXPECTS(peer < balance_.size());
  const Credits amount = balance_[peer];
  balance_[peer] = 0;
  burned_ += amount;
  return amount;
}

Credits CreditLedger::collect_tax(PeerId peer, Credits amount) {
  CF_EXPECTS(peer < balance_.size());
  const Credits take = amount < balance_[peer] ? amount : balance_[peer];
  balance_[peer] -= take;
  treasury_ += take;
  return take;
}

Credits CreditLedger::lock_stake(PeerId peer, Credits target) {
  CF_EXPECTS(peer < balance_.size());
  if (staked_[peer] >= target) return 0;
  const Credits wanted = target - staked_[peer];
  const Credits take = wanted < balance_[peer] ? wanted : balance_[peer];
  balance_[peer] -= take;
  staked_[peer] += take;
  staked_total_ += take;
  return take;
}

Credits CreditLedger::slash_stake(PeerId peer, double fraction) {
  CF_EXPECTS(peer < balance_.size());
  CF_EXPECTS(fraction >= 0.0 && fraction <= 1.0);
  const Credits stake = staked_[peer];
  if (stake == 0) return 0;
  auto slashed = static_cast<Credits>(
      static_cast<double>(stake) * fraction + 0.5);
  if (slashed > stake) slashed = stake;
  staked_[peer] = 0;
  staked_total_ -= stake;
  treasury_ += slashed;
  balance_[peer] += stake - slashed;
  return slashed;
}

void CreditLedger::redistribute(std::span<const PeerId> recipients) {
  CF_EXPECTS_MSG(treasury_ >= recipients.size(),
                 "treasury cannot cover redistribution");
  for (PeerId peer : recipients) {
    CF_EXPECTS(peer < balance_.size());
    balance_[peer] += 1;
  }
  treasury_ -= recipients.size();
}

Credits CreditLedger::circulating() const {
  Credits total = 0;
  for (Credits b : balance_) total += b;
  return total;
}

bool CreditLedger::audit() const {
  return circulating() + staked_total_ + treasury_ == minted_ - burned_;
}

void CreditLedger::snapshot(std::span<const PeerId> alive,
                            std::vector<double>& out) const {
  out.clear();
  out.reserve(alive.size());
  for (PeerId peer : alive) {
    CF_EXPECTS(peer < balance_.size());
    out.push_back(static_cast<double>(balance_[peer]));
  }
}

}  // namespace creditflow::p2p
