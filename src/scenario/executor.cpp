#include "scenario/executor.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <limits>
#include <mutex>
#include <numeric>
#include <thread>

#if __has_include(<sys/resource.h>)
#include <sys/resource.h>
#define CREDITFLOW_HAS_GETRUSAGE 1
#endif

#include "core/market.hpp"
#include "econ/gini.hpp"
#include "util/assert.hpp"
#include "util/fsio.hpp"
#include "util/logging.hpp"
#include "util/trace.hpp"

namespace creditflow::scenario {

namespace {

double mean_of(std::span<const double> v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

/// Process peak RSS (high-water mark) in bytes; 0 where unsupported.
std::uint64_t peak_rss_now() {
#ifdef CREDITFLOW_HAS_GETRUSAGE
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // ru_maxrss is KiB on Linux (bytes on macOS; the delta semantics hold
  // either way, only the unit scale differs — Linux is what CI measures).
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
#else
  return 0;
#endif
}

}  // namespace

double RunResult::metric(std::string_view name) const {
  for (const auto& [key, value] : metrics) {
    if (key == name) return value;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

std::vector<std::pair<std::string, double>> standard_metrics(
    const core::MarketConfig& cfg, const core::MarketReport& report) {
  std::vector<std::pair<std::string, double>> m;
  m.reserve(16);
  m.emplace_back("converged_gini", report.converged_gini());
  m.emplace_back("final_gini", report.final_wealth.gini);
  m.emplace_back("gini_spend",
                 report.gini_spend_rates.empty()
                     ? 0.0
                     : report.gini_spend_rates.tail_mean(0.25));
  // Windowed (post-warmup) spending-rate inequality — the Fig. 1 readout;
  // NaN when the run had no rate window.
  m.emplace_back("gini_windowed_spend",
                 report.final_windowed_spend_rates.empty()
                     ? std::numeric_limits<double>::quiet_NaN()
                     : econ::gini(report.final_windowed_spend_rates));
  m.emplace_back("mean_buffer_fill",
                 report.mean_buffer_fill.empty()
                     ? 0.0
                     : report.mean_buffer_fill.tail_mean(0.25));
  m.emplace_back("mean_balance", report.final_wealth.mean);
  m.emplace_back("bankrupt_fraction", report.final_wealth.bankrupt_fraction);
  m.emplace_back("top10_share", report.final_wealth.top10_share);
  m.emplace_back("mean_spend_rate", mean_of(report.final_spend_rates));
  m.emplace_back("mean_download_rate", mean_of(report.final_download_rates));

  // Exchange efficiency: chunk deliveries per peer-second, relative to the
  // stream rate — the fraction of the stream the average peer obtained
  // through the market (seeded chunks and stalls account for the rest).
  const double mean_alive = report.alive_peers.empty()
                                ? static_cast<double>(
                                      cfg.protocol.initial_peers)
                                : mean_of(report.alive_peers.values());
  const double demand =
      mean_alive * report.horizon * cfg.protocol.stream_rate;
  const auto counter = [&report](const std::string& name) {
    return static_cast<double>(report.counter(name));
  };
  const double transactions = counter("market.transactions");
  m.emplace_back("exchange_efficiency",
                 demand > 0.0 ? transactions / demand : 0.0);

  m.emplace_back("transactions", transactions);
  m.emplace_back("volume", counter("market.volume"));
  m.emplace_back("tax_collected", static_cast<double>(report.tax_collected));
  m.emplace_back("tax_redistributed",
                 static_cast<double>(report.tax_redistributed));
  m.emplace_back("churn_arrivals", counter("churn.arrivals"));
  m.emplace_back("churn_departures", counter("churn.departures"));
  m.emplace_back("alive_final",
                 report.alive_peers.empty()
                     ? static_cast<double>(cfg.protocol.initial_peers)
                     : report.alive_peers.last_value());
  m.emplace_back("ledger_conserved", report.ledger_conserved ? 1.0 : 0.0);

  // Order-book readouts — emitted only in book mode so the default-mode
  // metric vector (and every golden aggregate derived from it) is
  // byte-identical with the book compiled in.
  if (cfg.protocol.market_mode ==
      p2p::ProtocolConfig::MarketMode::kOrderBook) {
    const double fills = counter("book.fills");
    const double posted_qty = counter("book.posted_qty");
    m.emplace_back("book_fills", fills);
    // Run-level clearing price: credits crossed per unit filled.
    m.emplace_back("clearing_price",
                   fills > 0.0 ? counter("book.volume") / fills : 0.0);
    // Fill ratio: fraction of offered units that found a buyer.
    m.emplace_back("fill_ratio", posted_qty > 0.0 ? fills / posted_qty : 0.0);
    m.emplace_back("book_asks_expired", counter("book.asks_expired"));
    m.emplace_back("book_bids_posted", counter("book.bids_posted"));
    m.emplace_back("book_bids_matched", counter("book.bids_matched"));
  }

  // Strategy-layer readouts — same gating discipline as the book block:
  // with strat.* at defaults the metric vector stays byte-identical.
  if (cfg.protocol.strat.enabled()) {
    const auto& fs = report.final_strategy;
    const auto honest =
        static_cast<std::size_t>(strategy::Strategy::kHonest);
    const double total_credits = fs.total_credits();
    m.emplace_back("whitewash_resets", counter("strat.whitewash_resets"));
    // Net credit the cycling attack extracted from the mint.
    m.emplace_back("whitewash_extracted",
                   counter("strat.whitewash_minted") -
                       counter("strat.whitewash_burned"));
    m.emplace_back("collusion_volume", counter("strat.collusion_volume"));
    m.emplace_back("stake_locked", counter("strat.stake_locked"));
    m.emplace_back("stake_slashed", counter("strat.stake_slashed"));
    m.emplace_back("honest_peers",
                   static_cast<double>(fs.population[honest]));
    m.emplace_back("attacker_peers", static_cast<double>(fs.attackers()));
    m.emplace_back("honest_credit_share",
                   total_credits > 0.0 ? fs.credits[honest] / total_credits
                                       : 0.0);
    m.emplace_back("attacker_credit_share",
                   total_credits > 0.0
                       ? fs.attacker_credits() / total_credits
                       : 0.0);
    m.emplace_back("honest_fill",
                   fs.population[honest] > 0
                       ? fs.buffer_fill[honest] /
                             static_cast<double>(fs.population[honest])
                       : 0.0);
  }
  return m;
}

void execute_spec_into(const ScenarioSpec& spec, RunResult& result,
                       bool keep_report, std::size_t series_every,
                       std::string* series_csv) {
  const util::TraceSpan span("run", "executor", "run_index",
                             result.run_index);
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t rss_before = peak_rss_now();
  try {
    result.seed = spec.config.protocol.seed;
    core::MarketConfig market_cfg = spec.materialize();
    if (series_every > 0) market_cfg.series_every_rounds = series_every;
    core::CreditMarket market(std::move(market_cfg));
    result.report = market.run();
    if (series_csv != nullptr && market.series() != nullptr) {
      *series_csv = market.series()->csv();
    }
    result.metrics = standard_metrics(spec.config, result.report);
    result.telemetry.purchase_phase_seconds =
        market.protocol().purchase_phase_seconds();
    result.telemetry.seed_phase_seconds =
        market.protocol().seed_phase_seconds();
    result.telemetry.tax_phase_seconds =
        market.protocol().tax_phase_seconds();
    result.telemetry.rounds = result.report.rounds;
    result.telemetry.overlay_edges_dropped =
        market.protocol().overlay().edges_dropped();
    result.telemetry.churn_arrivals_dropped =
        result.report.counter("churn.arrivals_dropped");
    if (!keep_report) result.report = core::MarketReport{};
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  result.telemetry.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const std::uint64_t rss_after = peak_rss_now();
  result.telemetry.peak_rss_bytes =
      rss_after > rss_before ? rss_after - rss_before : 0;
}

void write_series_csv(const std::string& prefix, std::size_t run_index,
                      std::string_view csv) {
  if (prefix.empty() || csv.empty()) return;
  const std::string path =
      prefix + ".run" + std::to_string(run_index) + ".csv";
  if (!util::atomic_write_file(path, csv)) {
    CF_LOG_WARN("failed writing series CSV " << path);
  }
}

std::vector<RunResult> ThreadPoolExecutor::execute(
    const SweepPlan& plan, std::span<const std::size_t> run_indices,
    const ExecuteOptions& options) {
  const std::size_t total = run_indices.size();
  std::vector<RunResult> results(total);
  if (total == 0) return results;

  std::size_t jobs = options.jobs != 0
                         ? options.jobs
                         : std::max(1u, std::thread::hardware_concurrency());
  jobs = std::min(jobs, total);

  std::atomic<std::size_t> next{0};
  std::mutex progress_mutex;
  std::exception_ptr callback_error;  // the first on_result throw
  auto worker = [&] {
    while (true) {
      const std::size_t slot = next.fetch_add(1);
      if (slot >= total) return;
      const std::size_t run_index = run_indices[slot];
      RunResult& result = results[slot];
      result = plan.labelled_result(run_index);
      std::string series_csv;
      try {
        execute_spec_into(plan.spec(run_index), result, options.keep_reports,
                          options.series_every, &series_csv);
      } catch (const std::exception& e) {
        result.error = e.what();  // instantiate() itself rejected the point
      }
      if (!options.on_result) continue;
      const std::lock_guard<std::mutex> lock(progress_mutex);
      if (callback_error) return;
      try {
        options.on_result(result, series_csv);
      } catch (...) {
        // Thrown on a pool thread it would terminate the process: hand it
        // to the caller instead, and start no further run.
        callback_error = std::current_exception();
        next = total;
      }
    }
  };

  if (jobs == 1) {
    worker();  // in-place: no thread overhead for serial sweeps
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (std::size_t i = 0; i < jobs; ++i) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  if (callback_error) std::rethrow_exception(callback_error);
  return results;
}

}  // namespace creditflow::scenario
