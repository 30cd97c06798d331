// CreditFlow: exact equilibrium analysis of the closed Jackson network —
// the product-form credit distribution of Eq. (3) in the paper.
//
// The joint law is Q{B_1=b_1,…,B_N=b_N} = (1/Z_M) ∏ u_i^{b_i} over the
// simplex Σb_i = M. We compute the normalization constant with Buzen's
// convolution algorithm in log-space (stable for M up to 1e5+), from which
// exact per-peer marginals, expected wealth, empty-queue probabilities and
// effective throughputs follow.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace creditflow::queueing {

/// Closed single-server Jackson network with M circulating credits and
/// relative utilizations u (any positive scale; the paper normalizes
/// max u_i = 1, which is also the numerically best scaling).
class ClosedNetwork {
 public:
  /// Build and run Buzen's convolution. Requires at least one u_i > 0,
  /// all u_i >= 0, and M >= 0.
  ClosedNetwork(std::vector<double> utilization, std::uint64_t total_credits);

  [[nodiscard]] std::size_t num_queues() const { return u_.size(); }
  [[nodiscard]] std::uint64_t total_credits() const { return m_; }
  [[nodiscard]] std::span<const double> utilization() const { return u_; }

  /// log G(m) for m = 0..M (normalization constants of sub-populations).
  [[nodiscard]] double log_normalization(std::uint64_t m) const;

  /// P(B_i >= b) = u_i^b G(M-b)/G(M)  (0 for b > M).
  [[nodiscard]] double tail_probability(std::size_t i, std::uint64_t b) const;
  /// Full marginal PMF vector for peer i (length M+1; sums to 1).
  [[nodiscard]] std::vector<double> marginal(std::size_t i) const;
  /// Expected credits at peer i; Σ_i expected_wealth(i) = M.
  [[nodiscard]] double expected_wealth(std::size_t i) const;
  /// Probability that peer i is bankrupt (B_i = 0).
  [[nodiscard]] double empty_probability(std::size_t i) const;
  /// Fraction of peer i's nominal spending rate that is actually realized:
  /// 1 − P(B_i = 0). Multiplying by μ_i gives the paper's Eq. (9) left side.
  [[nodiscard]] double busy_probability(std::size_t i) const;

  /// Exact sample from the joint product-form law, by sequential conditional
  /// sampling on suffix normalization constants. Memory is O(N·M); guarded by
  /// a precondition (N+1)·(M+1) <= 64e6 to avoid accidental huge allocations.
  [[nodiscard]] std::vector<std::uint64_t> sample_joint(util::Rng& rng) const;

 private:
  void ensure_suffix_table() const;

  std::vector<double> u_;
  std::vector<double> log_u_;
  std::uint64_t m_ = 0;
  std::vector<double> log_g_;  // log G(0..M) over all queues
  // Lazy suffix table for joint sampling: log g_k(m) over queues k..N-1.
  mutable std::vector<std::vector<double>> log_g_suffix_;
};

}  // namespace creditflow::queueing
