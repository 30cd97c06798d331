// CreditFlow: MarketReport — everything a CreditMarket run produces.
#pragma once

#include <cstdint>
#include <map>
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
  /// The protocol's registry counters by name ("market.transactions",
  /// "churn.arrivals", "book.fills", ...), copied once at the end of the
  /// run. Read them through counter().
  std::map<std::string, std::uint64_t> counters;
  std::uint64_t tax_collected = 0;
  std::uint64_t tax_redistributed = 0;
  std::uint64_t rounds = 0;
  double horizon = 0.0;
  bool ledger_conserved = true;

  /// Final per-strategy population/credit breakdown (all-honest when the
  /// strategy layer is off).
  strategy::Breakdown final_strategy;

  /// Registry counter `name`. Throws util::PreconditionError when the run
  /// registered no counter of that name, so a misspelt name fails instead
  /// of reading 0.
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;

  /// Converged Gini estimate: mean over the trailing 25% of the run.
  [[nodiscard]] double converged_gini() const;

  /// One-line summary for logs/examples.
  [[nodiscard]] std::string summary() const;
};

}  // namespace creditflow::core
