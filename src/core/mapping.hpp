// CreditFlow: Table I of the paper — the mapping between a credit-based P2P
// system and a (closed) Jackson queueing network.
//
//   P2P overlay                      Queueing network
//   ---------------------------------------------------------------
//   peer i                           queue i
//   unit credit                      job
//   credits B_i held by peer i       jobs queued at queue i
//   total credits M                  total jobs M
//   purchase fraction i→j (p_ij)     routing probability p_ij
//   credit spending rate μ_i         service rate μ_i
//   income earning rate λ_i          arrival rate λ_i
//
// The mapping is *empirical*: it is estimated from a recorded protocol trace
// (what the simulated market actually did), and core/analyzer.hpp feeds it
// to the queueing model to predict the market's Gini and efficiency.
#pragma once

#include <vector>

#include "p2p/protocol.hpp"
#include "queueing/equilibrium.hpp"
#include "queueing/transfer_matrix.hpp"

namespace creditflow::core {

/// A fully-specified Jackson-network view of a credit market.
struct JacksonMapping {
  queueing::TransferMatrix transfer;   ///< P — credit routing
  std::vector<double> arrival_rates;   ///< λ — income earning rates
  std::vector<double> service_rates;   ///< μ — max spending rates
  std::vector<double> utilization;     ///< u — Eq. (2), max-normalized
  std::uint64_t total_credits = 0;     ///< M
  double average_wealth = 0.0;         ///< c = M/N

  [[nodiscard]] std::size_t num_peers() const {
    return service_rates.size();
  }
};

/// Empirical mapping estimated from the protocol's transaction trace:
/// p_ij = share of i's payments that went to j; λ_i = credits earned per
/// alive second; μ_i = nominal (configured) spending rate. Requires the
/// trace to have been enabled before the run and at least one transaction.
[[nodiscard]] JacksonMapping mapping_from_trace(
    const p2p::StreamingProtocol& protocol, double now);

}  // namespace creditflow::core
