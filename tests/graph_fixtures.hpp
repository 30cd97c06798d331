// Reference topologies for tests of the production graph, overlay and
// queueing code. The simulator itself only builds scale-free and
// Erdős–Rényi graphs (graph/generators.hpp); these regular shapes give tests
// overlays whose degrees and neighborhoods are known exactly.
#pragma once

#include <algorithm>
#include <cstddef>

#include "graph/graph.hpp"
#include "util/assert.hpp"

namespace creditflow::graph {

/// Ring lattice where each node links to `half_k` neighbors on each side.
inline Graph ring_lattice(std::size_t n, std::size_t half_k) {
  CF_EXPECTS(n >= 2);
  CF_EXPECTS(half_k >= 1 && half_k < n);
  Graph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t j = 1; j <= half_k; ++j) {
      g.add_edge(u, static_cast<NodeId>((u + j) % n));
    }
  }
  return g;
}

/// Complete graph K_n.
inline Graph complete(std::size_t n) {
  Graph g(n);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v) g.add_edge(u, v);
  return g;
}

/// Star: node 0 is the hub.
inline Graph star(std::size_t n) {
  CF_EXPECTS(n >= 2);
  Graph g(n);
  for (NodeId v = 1; v < n; ++v) g.add_edge(0, v);
  return g;
}

/// One component; an empty graph counts as connected.
inline bool is_connected(const Graph& g) {
  const auto labels = connected_components(g);
  return std::all_of(labels.begin(), labels.end(),
                     [](std::uint32_t label) { return label == 0; });
}

}  // namespace creditflow::graph
