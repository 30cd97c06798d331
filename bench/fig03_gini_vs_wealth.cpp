// Figure 3 of the paper: Gini index of the credit distribution vs the
// average wealth c, for networks of N = 50, 100, 200, 400 peers.
//
// Three series per N are reported:
//   * exact      — expected sample Gini of the exact product-form
//                  equilibrium (joint draws via Buzen suffix sampling),
//   * eq8        — Gini of the paper's Eq. (8) binomial approximation,
//   * simulated  — the streaming-market simulation measured at the end of a
//                  long run (N = 100 column only; the full cross-product
//                  would dominate the bench's runtime).
//
// Paper's claim: the Gini rises quickly with c and then saturates. The
// exact product form saturates at ~0.5 from above/below depending on c;
// the simulated market interpolates between the tight liquidity-managed
// regime at small c and the free-diffusion regime at large c.
#include "bench_common.hpp"
#include "core/analyzer.hpp"
#include "queueing/approx.hpp"

int main() {
  using namespace creditflow;

  const std::size_t sizes[] = {50, 100, 200, 400};
  const std::uint64_t wealths[] = {1, 2, 5, 10, 20, 40, 60, 80, 100};

  util::ConsoleTable table(
      "Fig. 3 — Gini index vs average wealth c (symmetric utilization)");
  table.set_header({"c", "exact_N50", "exact_N100", "exact_N200",
                    "exact_N400", "eq8_N100", "sim_N100"});

  core::AnalyzerOptions opts;
  opts.gini_samples = 48;

  for (const auto c : wealths) {
    std::vector<util::Cell> row;
    row.emplace_back(static_cast<std::int64_t>(c));
    for (const auto n : sizes) {
      const auto verdict = core::analyze_utilization(
          std::vector<double>(n, 1.0), c * n, opts);
      row.emplace_back(verdict.predicted_gini);
    }
    row.emplace_back(econ::gini_from_pmf(
        queueing::approx_marginal_eq8(100, c * 100)));

    core::MarketConfig cfg =
        scenario::paper_market(100, c, 8000.0 * bench::time_scale());
    core::CreditMarket market(cfg);
    const auto report = market.run();
    row.emplace_back(report.converged_gini());
    table.add_row(std::move(row));
  }
  bench::emit(table, "fig03_gini_vs_wealth");
  return 0;
}
