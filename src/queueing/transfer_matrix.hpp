// CreditFlow: the credit transfer probability matrix P of the paper
// (Sec. III-B) — entry p_ij is the fraction of peer i's credit spending that
// flows to neighbor j. Rows are probability distributions (closed network:
// row sums are exactly 1; open network: row sums may be < 1, the deficit
// being the probability that a job leaves the system).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/math.hpp"

namespace creditflow::queueing {

/// One sparse row entry: probability of routing to `to`.
struct RoutingEntry {
  std::uint32_t to = 0;
  double probability = 0.0;
};

/// Row-stochastic routing matrix stored sparsely, with dense conversion for
/// the direct linear-algebra paths.
class TransferMatrix {
 public:
  TransferMatrix() = default;
  /// Create an n-by-n matrix with all-zero rows (invalid until filled).
  explicit TransferMatrix(std::size_t n);

  [[nodiscard]] std::size_t size() const { return rows_.size(); }

  /// Replace row i; entries must reference valid columns. Probabilities must
  /// be non-negative; duplicates are merged.
  void set_row(std::size_t i, std::vector<RoutingEntry> entries);
  [[nodiscard]] std::span<const RoutingEntry> row(std::size_t i) const;
  /// Sum of row i's probabilities.
  [[nodiscard]] double row_sum(std::size_t i) const;
  /// p_ij by linear scan of the sparse row.
  [[nodiscard]] double at(std::size_t i, std::size_t j) const;

  /// True when every row sums to 1 within `tol` (closed network).
  [[nodiscard]] bool is_stochastic(double tol = 1e-9) const;
  /// True when every row sums to <= 1 + tol (open network allowed).
  [[nodiscard]] bool is_substochastic(double tol = 1e-9) const;
  /// True when the directed graph of positive entries is strongly connected
  /// (single SCC), i.e., the chain is irreducible.
  [[nodiscard]] bool is_irreducible() const;

  /// y = x * P.
  [[nodiscard]] std::vector<double> left_multiply(
      std::span<const double> x) const;

  [[nodiscard]] util::Matrix to_dense() const;

  // ---- Builders ----------------------------------------------------------

  /// Uniform routing over graph neighbors with optional self-retention:
  /// p_ii = self_prob, p_ij = (1 - self_prob)/deg(i) for each neighbor.
  /// Isolated nodes get p_ii = 1.
  [[nodiscard]] static TransferMatrix uniform_from_graph(const graph::Graph& g,
                                                         double self_prob = 0.0);

 private:
  std::vector<std::vector<RoutingEntry>> rows_;
};

}  // namespace creditflow::queueing
