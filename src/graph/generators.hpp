// CreditFlow: overlay topology generators.
//
// The paper's simulations use scale-free overlays with degree distribution
// P(D) ∝ D^-k, k = 2.5, and mean degree 20 (Sec. VI). We provide that
// generator plus Erdős–Rényi G(n, p).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace creditflow::graph {

/// Erdős–Rényi G(n, p).
[[nodiscard]] Graph erdos_renyi(std::size_t n, double p, util::Rng& rng);

/// Parameters for the scale-free overlay generator.
struct ScaleFreeParams {
  double exponent = 2.5;        ///< shape parameter k in P(D) ∝ D^-k
  double target_mean_degree = 20.0;
  std::uint64_t max_degree = 0;  ///< 0 = auto (~sqrt(n) * 4, capped at n-1)
};

/// Sample a power-law degree sequence whose mean is close to the target.
/// The minimum degree is tuned so the truncated power-law mean matches
/// `target_mean_degree`; the sum is adjusted to be even. Each degree follows
/// the exact law P(d) ∝ d^-k however wide its range, by inverse CDF over one
/// table of d^-k for d up to the max degree: one pow() per table entry, then
/// O(n + max degree).
[[nodiscard]] std::vector<std::uint64_t> power_law_degree_sequence(
    std::size_t n, const ScaleFreeParams& params, util::Rng& rng);

/// Scale-free overlay via the configuration model on a power-law degree
/// sequence, with self-loop/multi-edge rejection and a connectivity repair
/// pass (small components are linked into the giant component).
[[nodiscard]] Graph scale_free(std::size_t n, const ScaleFreeParams& params,
                               util::Rng& rng);

/// Link all components into one (adds the minimum number of edges, choosing
/// random endpoints). No-op on a connected graph.
void make_connected(Graph& g, util::Rng& rng);

}  // namespace creditflow::graph
