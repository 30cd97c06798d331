// Figure 2 of the paper: Lorenz curves of the marginal credit distribution
// under symmetric utilization, for (M=2000, N=100), (M=25000, N=50),
// (M=50000, N=50).
//
// Two constructions are printed side by side:
//   * the paper's Eq. (8) multinomial approximation (a Binomial(M, 1/N)
//     marginal), which is what the figure in the paper plots, and
//   * the exact product-form marginal (Buzen), which is geometric-like and
//     markedly more skewed — the approximation error explained in
//     src/queueing/approx.hpp.
#include "bench_common.hpp"
#include "econ/lorenz.hpp"
#include "queueing/approx.hpp"
#include "queueing/closed_network.hpp"

int main() {
  using namespace creditflow;

  struct Config {
    std::uint64_t m;
    std::size_t n;
  };
  const Config configs[] = {{2000, 100}, {25000, 50}, {50000, 50}};

  util::ConsoleTable table(
      "Fig. 2 — Lorenz curves: cumulative credit share of bottom x% peers");
  table.set_header({"pop_share", "eq8_M2000_N100", "eq8_M25000_N50",
                    "eq8_M50000_N50", "exact_M2000_N100", "exact_M25000_N50",
                    "exact_M50000_N50"});

  std::vector<econ::LorenzCurve> eq8_curves;
  std::vector<econ::LorenzCurve> exact_curves;
  for (const auto& cfg : configs) {
    eq8_curves.push_back(econ::lorenz_from_pmf(
        queueing::approx_marginal_eq8(cfg.n, cfg.m)));
    const queueing::ClosedNetwork net(std::vector<double>(cfg.n, 1.0),
                                      cfg.m);
    exact_curves.push_back(econ::lorenz_from_pmf(net.marginal(0)));
  }

  for (int pct = 0; pct <= 100; pct += 10) {
    const double x = pct / 100.0;
    std::vector<util::Cell> row;
    row.emplace_back(static_cast<std::int64_t>(pct));
    for (const auto& c : eq8_curves) row.emplace_back(c.share_at(x));
    for (const auto& c : exact_curves) row.emplace_back(c.share_at(x));
    table.add_row(std::move(row));
  }
  bench::emit(table, "fig02_lorenz_curves");

  util::ConsoleTable gini("Fig. 2 — Gini of the marginal distributions");
  gini.set_header({"config", "eq8_binomial", "exact_product_form"});
  for (std::size_t k = 0; k < 3; ++k) {
    gini.add_row({std::string("M=") + std::to_string(configs[k].m) +
                      " N=" + std::to_string(configs[k].n),
                  econ::gini_from_lorenz(eq8_curves[k]),
                  econ::gini_from_lorenz(exact_curves[k])});
  }
  bench::emit(gini, "fig02_gini");
  return 0;
}
