#include "queueing/transfer_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/assert.hpp"

namespace creditflow::queueing {

TransferMatrix::TransferMatrix(std::size_t n) : rows_(n) {}

void TransferMatrix::set_row(std::size_t i, std::vector<RoutingEntry> entries) {
  CF_EXPECTS(i < rows_.size());
  std::map<std::uint32_t, double> merged;
  for (const auto& e : entries) {
    CF_EXPECTS(e.to < rows_.size());
    CF_EXPECTS_MSG(e.probability >= 0.0, "negative routing probability");
    merged[e.to] += e.probability;
  }
  std::vector<RoutingEntry> row;
  row.reserve(merged.size());
  for (const auto& [to, p] : merged) {
    if (p > 0.0) row.push_back({to, p});
  }
  rows_[i] = std::move(row);
}

std::span<const RoutingEntry> TransferMatrix::row(std::size_t i) const {
  CF_EXPECTS(i < rows_.size());
  return rows_[i];
}

double TransferMatrix::row_sum(std::size_t i) const {
  CF_EXPECTS(i < rows_.size());
  double s = 0.0;
  for (const auto& e : rows_[i]) s += e.probability;
  return s;
}

double TransferMatrix::at(std::size_t i, std::size_t j) const {
  CF_EXPECTS(i < rows_.size() && j < rows_.size());
  for (const auto& e : rows_[i]) {
    if (e.to == j) return e.probability;
  }
  return 0.0;
}

bool TransferMatrix::is_stochastic(double tol) const {
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (std::abs(row_sum(i) - 1.0) > tol) return false;
  }
  return !rows_.empty();
}

bool TransferMatrix::is_substochastic(double tol) const {
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (row_sum(i) > 1.0 + tol) return false;
  }
  return !rows_.empty();
}

bool TransferMatrix::is_irreducible() const {
  // Kosaraju-style double DFS (iterative) over positive entries.
  const std::size_t n = rows_.size();
  if (n == 0) return false;

  std::vector<std::vector<std::uint32_t>> fwd(n), rev(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& e : rows_[i]) {
      if (e.probability > 0.0) {
        fwd[i].push_back(e.to);
        rev[e.to].push_back(static_cast<std::uint32_t>(i));
      }
    }
  }
  auto reaches_all = [n](const std::vector<std::vector<std::uint32_t>>& adj) {
    std::vector<char> seen(n, 0);
    std::vector<std::uint32_t> stack{0};
    seen[0] = 1;
    std::size_t count = 1;
    while (!stack.empty()) {
      const auto u = stack.back();
      stack.pop_back();
      for (auto v : adj[u]) {
        if (!seen[v]) {
          seen[v] = 1;
          ++count;
          stack.push_back(v);
        }
      }
    }
    return count == n;
  };
  return reaches_all(fwd) && reaches_all(rev);
}

std::vector<double> TransferMatrix::left_multiply(
    std::span<const double> x) const {
  CF_EXPECTS(x.size() == rows_.size());
  std::vector<double> y(rows_.size(), 0.0);
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (const auto& e : rows_[i]) y[e.to] += xi * e.probability;
  }
  return y;
}

util::Matrix TransferMatrix::to_dense() const {
  util::Matrix m(rows_.size(), rows_.size(), 0.0);
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    for (const auto& e : rows_[i]) m.at(i, e.to) = e.probability;
  }
  return m;
}

TransferMatrix TransferMatrix::uniform_from_graph(const graph::Graph& g,
                                                  double self_prob) {
  CF_EXPECTS(self_prob >= 0.0 && self_prob < 1.0);
  TransferMatrix p(g.num_nodes());
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    std::vector<RoutingEntry> row;
    const auto nbrs = g.neighbors(u);
    if (nbrs.empty()) {
      row.push_back({u, 1.0});
    } else {
      if (self_prob > 0.0) row.push_back({u, self_prob});
      const double share =
          (1.0 - self_prob) / static_cast<double>(nbrs.size());
      for (auto v : nbrs) row.push_back({v, share});
    }
    p.set_row(u, std::move(row));
  }
  return p;
}

}  // namespace creditflow::queueing
