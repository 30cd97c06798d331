#include "graph/graph.hpp"

#include <algorithm>
#include <queue>

#include "util/assert.hpp"

namespace creditflow::graph {

Graph::Graph(std::size_t num_nodes) : adj_(num_nodes) {}

bool Graph::add_edge(NodeId u, NodeId v) {
  CF_EXPECTS(u < adj_.size() && v < adj_.size());
  if (u == v) return false;
  if (has_edge(u, v)) return false;
  adj_[u].push_back(v);
  adj_[v].push_back(u);
  ++num_edges_;
  return true;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  CF_EXPECTS(u < adj_.size() && v < adj_.size());
  const auto& smaller = adj_[u].size() <= adj_[v].size() ? adj_[u] : adj_[v];
  const NodeId target = adj_[u].size() <= adj_[v].size() ? v : u;
  return std::find(smaller.begin(), smaller.end(), target) != smaller.end();
}

std::span<const NodeId> Graph::neighbors(NodeId u) const {
  CF_EXPECTS(u < adj_.size());
  return adj_[u];
}

std::size_t Graph::degree(NodeId u) const {
  CF_EXPECTS(u < adj_.size());
  return adj_[u].size();
}

double Graph::mean_degree() const {
  if (adj_.empty()) return 0.0;
  return 2.0 * static_cast<double>(num_edges_) /
         static_cast<double>(adj_.size());
}

std::vector<std::uint32_t> connected_components(const Graph& g) {
  const std::size_t n = g.num_nodes();
  constexpr std::uint32_t kUnvisited = ~std::uint32_t{0};
  std::vector<std::uint32_t> label(n, kUnvisited);
  std::uint32_t next_label = 0;
  std::queue<NodeId> frontier;
  for (NodeId start = 0; start < n; ++start) {
    if (label[start] != kUnvisited) continue;
    label[start] = next_label;
    frontier.push(start);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop();
      for (NodeId v : g.neighbors(u)) {
        if (label[v] == kUnvisited) {
          label[v] = next_label;
          frontier.push(v);
        }
      }
    }
    ++next_label;
  }
  return label;
}

}  // namespace creditflow::graph
