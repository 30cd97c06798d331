// Figure 4 of the paper: content-exchange efficiency 1 − Q{B_i = 0} as a
// function of the average wealth c.
//
// Series:
//   * eq9        — the paper's asymptotic 1 − e^{-c} (Eq. 9),
//   * eq8_finite — the finite-N value under the Eq. (8) approximation,
//                  1 − ((N−1)/N)^M with N = 1000,
//   * exact      — the exact product-form busy probability M/(M+N−1),
//   * simulated  — fraction of peers actively spending at the end of a
//                  streaming-market run (N = 300).
//
// All series agree on the paper's point: too little average wealth starves
// the exchange; the efficiency climbs steeply with c and saturates.
#include "bench_common.hpp"
#include "econ/wealth.hpp"
#include "queueing/approx.hpp"
#include "queueing/closed_network.hpp"

int main() {
  using namespace creditflow;

  util::ConsoleTable table(
      "Fig. 4 — exchange efficiency 1 - Q{B_i=0} vs average wealth c");
  table.set_header({"c", "eq9_asymptotic", "eq8_finite_N1000",
                    "exact_N1000", "sim_active_fraction_N300"});

  const double cs[] = {0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0,
                       5.0,  6.0, 8.0, 10.0};
  for (const double c : cs) {
    const std::size_t n = 1000;
    const auto m = static_cast<std::uint64_t>(c * static_cast<double>(n));
    const queueing::ClosedNetwork net(std::vector<double>(n, 1.0), m);

    // Simulated active fraction: peers holding at least one credit at the
    // end of a run with integer endowment max(1, round(c)) — the integer
    // market cannot represent fractional c, so small c values snap to 1.
    const auto sim_credits =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(c + 0.5));
    core::MarketConfig cfg = scenario::paper_market(
        300, sim_credits, 3000.0 * bench::time_scale());
    core::CreditMarket market(cfg);
    const auto report = market.run();
    const double active =
        1.0 - econ::fraction_below(report.final_balances, 1.0);

    table.add_row({c, queueing::efficiency_eq9(c),
                   queueing::efficiency_finite(n, m),
                   net.busy_probability(0), active});
  }
  bench::emit(table, "fig04_exchange_efficiency");
  return 0;
}
