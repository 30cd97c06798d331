// CreditFlow: MarketReport — everything a CreditMarket run produces, plus
// console/CSV rendering helpers shared by examples and benches.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "econ/wealth.hpp"
#include "strategy/strategy.hpp"
#include "util/stats.hpp"

namespace creditflow::core {

/// Result of one simulated market run.
struct MarketReport {
  // Time series sampled every snapshot_interval.
  util::TimeSeries gini_balances{"gini.balances"};
  util::TimeSeries gini_spend_rates{"gini.spend_rates"};
  util::TimeSeries mean_balance{"mean.balance"};
  util::TimeSeries mean_buffer_fill{"mean.buffer_fill"};
  util::TimeSeries alive_peers{"alive.peers"};

  // Final-state snapshots (alive peers, unsorted).
  std::vector<double> final_balances;
  std::vector<double> final_spend_rates;
  std::vector<double> final_download_rates;
  econ::WealthSummary final_wealth;
  /// Spend rates over [rate_window_start, horizon]; empty unless the run
  /// was configured with a rate window (MarketConfig::rate_window_start).
  std::vector<double> final_windowed_spend_rates;

  // Market-wide accounting.
  std::uint64_t transactions = 0;
  std::uint64_t volume = 0;
  std::uint64_t tax_collected = 0;
  std::uint64_t tax_redistributed = 0;
  std::uint64_t churn_arrivals = 0;
  std::uint64_t churn_departures = 0;
  std::uint64_t rounds = 0;
  double horizon = 0.0;
  bool ledger_conserved = true;

  // Overlay health: joins whose preferential links were dropped because
  // the overlay's fixed edge arena was full.
  std::uint64_t overlay_edges_dropped = 0;
  std::uint64_t churn_arrivals_dropped = 0;

  // Order-book market accounting (all zero when market_mode=direct).
  std::uint64_t book_asks_posted = 0;    ///< ask posts (incl. reprices)
  std::uint64_t book_posted_qty = 0;     ///< units offered across all posts
  std::uint64_t book_fills = 0;          ///< unit fills (== purchases)
  std::uint64_t book_volume = 0;         ///< credits crossed through the book
  std::uint64_t book_asks_expired = 0;   ///< churn/drain expiries
  std::uint64_t book_bids_posted = 0;    ///< resting limit bids posted
  std::uint64_t book_bids_matched = 0;   ///< bids cleared by a purchase
  std::uint64_t book_bids_expired = 0;   ///< bids expired on buyer churn

  // Strategy-layer accounting (all zero when strat.* is off).
  std::uint64_t whitewash_resets = 0;    ///< identity cycles executed
  std::uint64_t whitewash_minted = 0;    ///< credits re-minted by cycling
  std::uint64_t whitewash_burned = 0;    ///< balances forfeited to cycle
  std::uint64_t collusion_transfers = 0; ///< wash transfers executed
  std::uint64_t collusion_volume = 0;    ///< credits washed in cliques
  std::uint64_t stake_locked = 0;        ///< credits bonded (incl. topups)
  std::uint64_t stake_slashed = 0;       ///< bond forfeited to treasury
  std::uint64_t stake_topups = 0;        ///< revalidation top-up events
  /// Final per-strategy population/credit breakdown (all-honest when the
  /// strategy layer is off).
  strategy::Breakdown final_strategy;

  /// Converged Gini estimate: mean over the trailing 25% of the run.
  [[nodiscard]] double converged_gini() const;

  /// One-line summary for logs/examples.
  [[nodiscard]] std::string summary() const;
};

}  // namespace creditflow::core
