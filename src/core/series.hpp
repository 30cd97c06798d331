// CreditFlow: per-round time-series sampler — the trajectory readout
// behind `market_cli --series-out`.
//
// The paper's sustainability story is about *trajectories*: how Gini,
// availability and credit supply evolve round by round, not just where
// they end up. The periodic MarketReport snapshots (every
// snapshot_interval simulated seconds) are too coarse to show when a
// market tips; this sampler hooks the protocol's post-round callback and
// records one row every `every_rounds` rounds, immediately after that
// round's purchases and taxation settle.
//
// Sampling is read-only (consumes no RNG — golden outputs are unaffected)
// and allocation-free at steady state: rows are reserved up front from
// the horizon, and the balance/Gini scratch buffers are the same
// caller-owned snapshot flavors the PR-4 snapshot path uses.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "p2p/protocol.hpp"
#include "strategy/strategy.hpp"

namespace creditflow::core {

/// One sampled row, taken at the end of a protocol round.
struct RoundSample {
  std::uint64_t round = 0;        ///< 1-based protocol round index
  double t = 0.0;                 ///< simulation time of the round
  std::size_t alive_peers = 0;    ///< availability: peers in the market
  double gini_balances = 0.0;     ///< wealth inequality (nan when supply 0)
  double credit_supply = 0.0;     ///< total credits held by alive peers
  double mean_balance = 0.0;      ///< credit_supply / alive_peers
  double mean_buffer_fill = 0.0;  ///< playback-continuity proxy
  // Order-book columns — sampled (and emitted) only when the protocol runs
  // with market_mode=kOrderBook; the default-mode CSV header is pinned.
  double book_depth = 0.0;        ///< resting asks at end of round
  double book_spread = 0.0;       ///< max_ask - min_ask
  double clearing_price = 0.0;    ///< volume/fills of the round
  double fill_ratio = 0.0;        ///< fills / posted quantity of the round
  // Strategy columns — sampled (and emitted) only when the strategy layer
  // is enabled; the default-mode CSV header stays pinned.
  std::array<std::size_t, strategy::kNumStrategies> strat_peers{};
  std::array<double, strategy::kNumStrategies> strat_credits{};
  double staked_total = 0.0;  ///< bonded credit outside circulation
  double honest_fill = 0.0;   ///< mean buffer fill of honest peers only
};

/// Collects RoundSamples from a live protocol; attach via sample() from
/// the protocol's post-round hook (CreditMarket wires this up when
/// MarketConfig::series_every_rounds > 0).
class RoundSeriesSampler {
 public:
  /// `every_rounds` ≥ 1; `expected_rounds` sizes the row reservation (an
  /// estimate — growth past it merely reallocates).
  RoundSeriesSampler(const p2p::StreamingProtocol& protocol,
                     std::size_t every_rounds, std::uint64_t expected_rounds);

  /// Record a row if this round lands on the cadence. Call once per round,
  /// after the round's phases completed.
  void on_round(std::uint64_t round, double t);

  [[nodiscard]] const std::vector<RoundSample>& rows() const { return rows_; }
  [[nodiscard]] std::size_t every_rounds() const { return every_rounds_; }

  /// The rows as CSV (shortest round-trip doubles, one header line):
  /// round,t,alive_peers,gini_balances,credit_supply,mean_balance,
  /// mean_buffer_fill — plus ,book_depth,book_spread,clearing_price,
  /// fill_ratio when the protocol runs in order-book mode, and, when the
  /// strategy layer is on, ,strat_<name>_peers for each strategy (honest,
  /// freeride, whitewash, collude, staked), ,strat_<name>_credits for each,
  /// ,strat_staked_total,strat_honest_fill.
  [[nodiscard]] std::string csv() const;

 private:
  const p2p::StreamingProtocol& protocol_;
  bool book_mode_ = false;
  bool strat_mode_ = false;
  std::size_t every_rounds_;
  std::vector<RoundSample> rows_;
  // Scratch for the allocation-free snapshot flavors.
  std::vector<double> balances_;
  std::vector<double> gini_scratch_;
};

}  // namespace creditflow::core
