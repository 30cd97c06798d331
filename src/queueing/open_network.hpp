// CreditFlow: open Jackson network — the model of a P2P market with peer
// churn (Sec. VI-E of the paper): arriving peers inject credits, departing
// peers remove them, so jobs enter and leave the queueing network.
#pragma once

#include <span>
#include <vector>

#include "queueing/transfer_matrix.hpp"

namespace creditflow::queueing {

/// Solution of the open-network traffic equations λ = γ + λP.
struct OpenNetworkSolution {
  std::vector<double> lambda;  ///< total arrival rate per queue
  std::vector<double> rho;     ///< utilization λ_i/μ_i
  bool stable = false;         ///< all ρ_i < 1
};

/// Open single-server Jackson network.
class OpenNetwork {
 public:
  /// `routing` may be substochastic (row deficit = departure probability);
  /// `external_arrivals` γ_i >= 0 with at least one positive entry;
  /// `service_rates` μ_i > 0.
  OpenNetwork(TransferMatrix routing, std::vector<double> external_arrivals,
              std::vector<double> service_rates);

  [[nodiscard]] std::size_t num_queues() const { return gamma_.size(); }

  /// Solve λ = γ + λP (direct dense solve).
  [[nodiscard]] const OpenNetworkSolution& solution() const { return sol_; }

  /// E[B_i] = ρ/(1-ρ); requires stability of queue i.
  [[nodiscard]] double expected_wealth(std::size_t i) const;
  /// P(B_i = 0) = 1 - ρ_i.
  [[nodiscard]] double empty_probability(std::size_t i) const;

 private:
  TransferMatrix p_;
  std::vector<double> gamma_;
  std::vector<double> mu_;
  OpenNetworkSolution sol_;
};

}  // namespace creditflow::queueing
