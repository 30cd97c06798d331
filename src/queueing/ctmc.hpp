// CreditFlow: Gillespie (exact-jump) simulator of the Jackson network CTMC.
//
// This simulates the paper's *model* directly — credits hop queue-to-queue
// with exponential service times and routing matrix P — independently of the
// full P2P protocol simulator. It serves two roles: (a) validating the
// Buzen/MVA analytics against a stochastic run, and (b) producing the
// model-level counterparts of the paper's Figs. 5–8.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "queueing/transfer_matrix.hpp"
#include "util/rng.hpp"

namespace creditflow::queueing {

/// Snapshot handed to observers during a run.
struct CtmcSnapshot {
  double time = 0.0;
  std::span<const std::uint64_t> credits;   ///< per-queue job counts
  std::span<const double> spend_rate;       ///< departures/sec since last snap
};

/// Configuration of a closed-network CTMC run.
struct ClosedCtmcConfig {
  std::vector<double> service_rates;          ///< μ_i > 0
  std::vector<std::uint64_t> initial_credits; ///< B_i(0)
  double horizon = 1000.0;                    ///< simulated seconds
  double snapshot_interval = 10.0;            ///< observer cadence
  std::uint64_t seed = 1;
};

/// Closed Jackson network simulator (credits conserved).
class ClosedCtmcSimulator {
 public:
  ClosedCtmcSimulator(TransferMatrix routing, ClosedCtmcConfig config);

  /// Run to the horizon, invoking `observer` at every snapshot interval
  /// (and once at the horizon). Returns total simulated jumps.
  std::uint64_t run(const std::function<void(const CtmcSnapshot&)>& observer);

  [[nodiscard]] std::span<const std::uint64_t> credits() const {
    return credits_;
  }
  [[nodiscard]] std::uint64_t total_credits() const { return total_; }
  /// Long-run average departure (spending) rate per queue over the full run.
  [[nodiscard]] std::vector<double> average_spend_rates() const;

 private:
  void set_queue_rate(std::size_t i);

  TransferMatrix p_;
  ClosedCtmcConfig cfg_;
  std::vector<util::AliasTable> routing_tables_;
  std::vector<std::vector<std::uint32_t>> routing_targets_;
  util::FenwickSampler active_;
  std::vector<std::uint64_t> credits_;
  std::vector<std::uint64_t> departures_;
  std::uint64_t total_ = 0;
  double time_ = 0.0;
  util::Rng rng_;
};

}  // namespace creditflow::queueing
