// CreditFlow: compact undirected graph used for P2P overlay topologies.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace creditflow::graph {

using NodeId = std::uint32_t;

/// Undirected simple graph over nodes 0..n-1 with adjacency lists.
///
/// Build with add_edge(); neighbor queries are valid at any time, has_edge()
/// is O(degree). The graph rejects self-loops and duplicate edges.
class Graph {
 public:
  Graph() = default;
  explicit Graph(std::size_t num_nodes);

  [[nodiscard]] std::size_t num_nodes() const { return adj_.size(); }
  [[nodiscard]] std::size_t num_edges() const { return num_edges_; }

  /// Add an undirected edge; returns false (and does nothing) if the edge
  /// already exists or u == v. Requires valid node ids.
  bool add_edge(NodeId u, NodeId v);
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const;
  [[nodiscard]] std::size_t degree(NodeId u) const;

  /// Mean degree 2|E|/|V| (0 for an empty graph).
  [[nodiscard]] double mean_degree() const;

 private:
  std::vector<std::vector<NodeId>> adj_;
  std::size_t num_edges_ = 0;
};

/// Component label per node (labels are 0-based, dense).
[[nodiscard]] std::vector<std::uint32_t> connected_components(const Graph& g);

}  // namespace creditflow::graph
