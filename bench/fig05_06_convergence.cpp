// Figures 5 & 6 of the paper: convergence of the credit distribution.
// Sorted per-peer balance curves are snapshotted during the earlier stage
// (first half of the run) and the later stage (second half): the early
// curves keep spreading, the late curves overlap — the queue-length
// distribution has stabilized (the equilibrium of Sec. IV).
//
// The model-level counterpart (closed Jackson CTMC with the same N, c)
// is run alongside as a cross-check: its curves stabilize to the same
// geometric-like profile.
#include <algorithm>

#include "bench_common.hpp"
#include "queueing/ctmc.hpp"
#include "queueing/transfer_matrix.hpp"
#include "graph/generators.hpp"

namespace {

/// Sorted-balance deciles of a snapshot, normalized by the mean wealth.
std::vector<double> decile_curve(std::vector<double> balances) {
  std::sort(balances.begin(), balances.end());
  double mean = 0.0;
  for (double b : balances) mean += b;
  mean /= static_cast<double>(balances.size());
  std::vector<double> out;
  for (int pct = 0; pct <= 100; pct += 10) {
    const auto idx =
        std::min(balances.size() - 1, balances.size() * pct / 100);
    out.push_back(mean > 0.0 ? balances[idx] / mean : 0.0);
  }
  return out;
}

}  // namespace

int main() {
  using namespace creditflow;
  const std::size_t peers = 500;
  const std::uint64_t c = 100;
  const double horizon = 40000.0 * bench::time_scale();

  // --- Protocol simulation -------------------------------------------------
  core::MarketConfig cfg = scenario::paper_market(peers, c, horizon);
  cfg.snapshot_interval = cfg.horizon / 8.0;

  std::vector<std::pair<double, std::vector<double>>> curves;
  {
    sim::Simulator sim;
    p2p::StreamingProtocol proto(cfg.protocol, sim);
    proto.start();
    for (int snap = 1; snap <= 8; ++snap) {
      sim.run_until(cfg.horizon * snap / 8.0);
      curves.emplace_back(sim.now(), decile_curve(proto.balance_snapshot()));
    }
  }

  util::ConsoleTable table(
      "Figs. 5/6 — sorted balance curves over time (balance / mean)");
  std::vector<std::string> header = {"peer_percentile"};
  for (const auto& [t, _] : curves) {
    header.push_back("t=" + std::to_string(static_cast<long>(t)));
  }
  table.set_header(std::move(header));
  for (int k = 0; k <= 10; ++k) {
    std::vector<util::Cell> row;
    row.emplace_back(static_cast<std::int64_t>(k * 10));
    for (const auto& [_, curve] : curves) row.emplace_back(curve[k]);
    table.add_row(std::move(row));
  }
  bench::emit(table, "fig05_06_convergence");

  // Convergence indicator: max decile movement between consecutive curves.
  util::ConsoleTable delta("Figs. 5/6 — curve movement between snapshots");
  delta.set_header({"interval", "max_decile_delta", "stage"});
  for (std::size_t s = 1; s < curves.size(); ++s) {
    double worst = 0.0;
    for (int k = 0; k <= 10; ++k) {
      worst = std::max(worst,
                       std::abs(curves[s].second[k] - curves[s - 1].second[k]));
    }
    delta.add_row({std::string("t") + std::to_string(s - 1) + "->t" +
                       std::to_string(s),
                   worst,
                   std::string(s <= curves.size() / 2 ? "earlier" : "later")});
  }
  bench::emit(delta, "fig05_06_convergence_delta");

  // --- Model-level CTMC cross-check ----------------------------------------
  util::Rng rng(2012);
  graph::ScaleFreeParams sf;
  const auto g = graph::scale_free(peers, sf, rng);
  const auto p = queueing::TransferMatrix::uniform_from_graph(g);
  queueing::ClosedCtmcConfig ctmc_cfg;
  ctmc_cfg.service_rates.assign(peers, 1.0);
  ctmc_cfg.initial_credits.assign(peers, c);
  ctmc_cfg.horizon = horizon / 10.0;
  ctmc_cfg.snapshot_interval = ctmc_cfg.horizon / 4.0;
  ctmc_cfg.seed = 7;
  queueing::ClosedCtmcSimulator ctmc(p, ctmc_cfg);

  util::ConsoleTable model("Figs. 5/6 — CTMC model counterpart (balance/mean)");
  model.set_header({"peer_percentile", "t_quarter", "t_half",
                    "t_three_quarters", "t_final"});
  std::vector<std::vector<double>> model_curves;
  ctmc.run([&](const queueing::CtmcSnapshot& snap) {
    std::vector<double> balances(snap.credits.size());
    for (std::size_t i = 0; i < balances.size(); ++i) {
      balances[i] = static_cast<double>(snap.credits[i]);
    }
    model_curves.push_back(decile_curve(std::move(balances)));
  });
  for (int k = 0; k <= 10; ++k) {
    std::vector<util::Cell> row;
    row.emplace_back(static_cast<std::int64_t>(k * 10));
    for (std::size_t s = 0; s < 4 && s < model_curves.size(); ++s) {
      row.emplace_back(model_curves[s][k]);
    }
    while (row.size() < 5) row.emplace_back(std::string("-"));
    model.add_row(std::move(row));
  }
  bench::emit(model, "fig05_06_ctmc");
  return 0;
}
