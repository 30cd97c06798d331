#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/assert.hpp"

namespace creditflow::graph {

Graph erdos_renyi(std::size_t n, double p, util::Rng& rng) {
  CF_EXPECTS(p >= 0.0 && p <= 1.0);
  Graph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.bernoulli(p)) g.add_edge(u, v);
    }
  }
  return g;
}

namespace {

/// Total weight and mean of the truncated discrete power law P(d) ∝ w[d] on
/// [lo, dmax], where w[d] = d^-alpha for d in [1, dmax] (w[0] unused). Both
/// sums run in ascending d.
struct TruncatedPowerLaw {
  double total;
  double mean;
};

TruncatedPowerLaw truncated_power_law(const std::vector<double>& w,
                                      std::uint64_t lo) {
  double norm = 0.0;
  double mean = 0.0;
  for (std::uint64_t d = lo; d < w.size(); ++d) {
    norm += w[d];
    mean += static_cast<double>(d) * w[d];
  }
  return {norm, mean / norm};
}

}  // namespace

std::vector<std::uint64_t> power_law_degree_sequence(
    std::size_t n, const ScaleFreeParams& params, util::Rng& rng) {
  CF_EXPECTS(n >= 3);
  CF_EXPECTS(params.exponent > 1.0);
  CF_EXPECTS(params.target_mean_degree >= 1.0);
  std::uint64_t dmax = params.max_degree;
  if (dmax == 0) {
    dmax = std::min<std::uint64_t>(
        n - 1,
        static_cast<std::uint64_t>(4.0 * std::sqrt(static_cast<double>(n))) +
            8);
  }
  dmax = std::min<std::uint64_t>(dmax, n - 1);
  CF_EXPECTS_MSG(params.target_mean_degree < static_cast<double>(dmax),
                 "target mean degree unreachable under max degree cap");

  std::vector<double> w(dmax + 1, 0.0);
  for (std::uint64_t d = 1; d <= dmax; ++d)
    w[d] = std::pow(static_cast<double>(d), -params.exponent);

  // Find the dmin whose truncated power-law mean brackets the target, then
  // mix dmin and dmin+1 to land on the target mean exactly (in expectation).
  std::uint64_t dmin = 1;
  while (dmin < dmax &&
         truncated_power_law(w, dmin + 1).mean <= params.target_mean_degree) {
    ++dmin;
  }
  const TruncatedPowerLaw low = truncated_power_law(w, dmin);
  TruncatedPowerLaw high = low;  // never drawn from when dmin == dmax
  double mix = 0.0;  // probability of using dmin+1 as the lower cutoff
  if (dmin < dmax) {
    high = truncated_power_law(w, dmin + 1);
    if (high.mean > low.mean) {
      mix = std::clamp((params.target_mean_degree - low.mean) /
                           (high.mean - low.mean),
                       0.0, 1.0);
    }
  }

  // Inverse CDF by a walk up from the cutoff; a cutoff at dmax takes no
  // uniform, and rounding that outlasts the walk lands on dmax.
  std::vector<std::uint64_t> degrees(n);
  for (auto& d : degrees) {
    const bool raised = rng.bernoulli(mix);
    d = raised ? dmin + 1 : dmin;
    if (d == dmax) continue;
    double u = rng.uniform() * (raised ? high.total : low.total);
    for (; d < dmax; ++d) {
      u -= w[d];
      if (u <= 0.0) break;
    }
  }
  // The configuration model needs an even stub count.
  const std::uint64_t sum = std::accumulate(degrees.begin(), degrees.end(),
                                            std::uint64_t{0});
  if (sum % 2 == 1) {
    auto& d = degrees[rng.uniform_index(degrees.size())];
    d = (d < dmax) ? d + 1 : d - 1;
  }
  return degrees;
}

Graph scale_free(std::size_t n, const ScaleFreeParams& params,
                 util::Rng& rng) {
  const auto degrees = power_law_degree_sequence(n, params, rng);

  // Configuration model: lay out stubs, shuffle, pair. Reject self-loops and
  // parallel edges; a few rejected stubs only shave the degree tails.
  std::vector<NodeId> stubs;
  stubs.reserve(std::accumulate(degrees.begin(), degrees.end(),
                                std::uint64_t{0}));
  for (NodeId u = 0; u < n; ++u) {
    for (std::uint64_t j = 0; j < degrees[u]; ++j) stubs.push_back(u);
  }
  rng.shuffle(stubs);

  Graph g(n);
  std::vector<NodeId> retry;
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    const NodeId u = stubs[i];
    const NodeId v = stubs[i + 1];
    if (!g.add_edge(u, v)) {
      retry.push_back(u);
      retry.push_back(v);
    }
  }
  // One rewiring pass over the rejected stubs.
  rng.shuffle(retry);
  for (std::size_t i = 0; i + 1 < retry.size(); i += 2) {
    g.add_edge(retry[i], retry[i + 1]);
  }

  make_connected(g, rng);
  return g;
}

void make_connected(Graph& g, util::Rng& rng) {
  if (g.num_nodes() <= 1) return;
  auto labels = connected_components(g);
  const std::uint32_t num_components =
      labels.empty() ? 0
                     : *std::max_element(labels.begin(), labels.end()) + 1;
  if (num_components <= 1) return;

  // Pick one representative per component; chain them together with random
  // partner nodes from the largest component where possible.
  std::vector<std::vector<NodeId>> members(num_components);
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    members[labels[u]].push_back(u);
  std::size_t giant = 0;
  for (std::size_t c = 1; c < members.size(); ++c) {
    if (members[c].size() > members[giant].size()) giant = c;
  }
  for (std::size_t c = 0; c < members.size(); ++c) {
    if (c == giant) continue;
    const NodeId u = members[c][rng.uniform_index(members[c].size())];
    const NodeId v =
        members[giant][rng.uniform_index(members[giant].size())];
    g.add_edge(u, v);
  }
}

}  // namespace creditflow::graph
