#include "workloads.hpp"

#include <filesystem>
#include <memory>
#include <optional>
#include <numeric>
#include <span>
#include <stdexcept>

#include <unistd.h>

#include "econ/gini.hpp"
#include "graph/generators.hpp"
#include "p2p/protocol.hpp"
#include "scenario/executor.hpp"
#include "scenario/plan.hpp"
#include "scenario/registry.hpp"
#include "scenario/result.hpp"
#include "scenario/store.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace creditflow;

// fig11 takes 20 snapshots per run (snapshot_interval = horizon / 20); the
// single-market workloads keep that cadence over their measured rounds.
constexpr std::size_t kSnapshotsPerRun = 20;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- passes -------------------------------------------------------------

/// What one pass of a workload measured. A pass is a fixed amount of work
/// built from the seed, so every pass of one process repeats the same
/// outputs and the same exact counts; only its timings differ.
struct Pass {
  std::map<std::string, double> timed;  ///< reported as the median over passes
  std::map<std::string, double> exact;  ///< must repeat in every pass
  std::string digest;
  std::vector<Outcome::PhaseRow> phases;  ///< summed over passes
  std::map<std::string, std::string> notes;
};

/// Run `one_pass(index)` until `o.seconds` have passed, and at least three
/// times, then fold the passes into `out`: each timing is the median over
/// passes, so a slow stretch of machine time that covers fewer than half of
/// them does not move it. A slower machine runs fewer passes, not a longer
/// process.
template <typename OnePass>
void repeat_passes(const Options& o, Outcome& out, SpanLog& log,
                   OnePass&& one_pass) {
  const std::size_t min_passes = o.tiny ? 2 : 3;
  const std::size_t max_passes = o.tiny ? 2 : 1000;
  std::vector<Pass> passes;
  const auto t0 = Clock::now();
  while (passes.size() < min_passes ||
         (passes.size() < max_passes &&
          seconds_between(t0, Clock::now()) < o.seconds)) {
    const ScopedSpan span(log, "pass", passes.size() + 1);
    passes.push_back(one_pass(passes.size()));
  }

  const Pass& first = passes.front();
  for (std::size_t k = 1; k < passes.size(); ++k) {
    out.check(passes[k].digest == first.digest &&
                  passes[k].exact == first.exact,
              "pass " + std::to_string(k + 1) +
                  " gave other outputs or counts than pass 1");
  }
  for (const auto& [name, value] : first.exact) out.values[name] = value;
  for (const auto& [name, value] : first.timed) {
    std::vector<double> samples;
    for (const Pass& p : passes) samples.push_back(p.timed.at(name));
    out.values[name] = median(std::move(samples));
  }
  out.digest = first.digest;
  out.notes = first.notes;
  out.notes["pass"] = "passes=" + std::to_string(passes.size()) +
                      " (timings: median over passes; counts: per pass)";
  out.phases = first.phases;
  for (std::size_t k = 1; k < passes.size(); ++k) {
    for (std::size_t i = 0; i < out.phases.size(); ++i) {
      out.phases[i].total_ms += passes[k].phases[i].total_ms;
    }
  }
}

// ---- fig11-sweep --------------------------------------------------------

struct SweepShape {
  double horizon = 0.0;
  std::size_t seeds = 0;
};

/// One pass runs the fig11 grid over a sixteenth of fig11's horizon (8000).
SweepShape sweep_shape(const Options& o) {
  if (o.tiny) return {200.0, 1};
  return {500.0, 2};
}

scenario::ScenarioSpec fig11_base(const Options& o, const SweepShape& shape) {
  scenario::ScenarioSpec base =
      scenario::ScenarioRegistry::builtin().get("fig11_churn");
  base.config.horizon = shape.horizon;
  base.config.snapshot_interval =
      shape.horizon / static_cast<double>(kSnapshotsPerRun);
  base.config.protocol.seed = o.seed;
  return base;
}

scenario::SweepSpec fig11_grid(const SweepShape& shape) {
  scenario::SweepSpec sweep;
  sweep.axes = {{"churn.arrival_rate", {1.0, 2.0}},
                {"churn.mean_lifespan", {100.0, 200.0, 500.0}}};
  sweep.seeds = shape.seeds;
  return sweep;
}

/// A fresh, empty directory under the work dir for one cold run store.
std::string fresh_store_dir(const Options& o) {
  static int counter = 0;
  const std::string dir = o.work_dir + "/store-" +
                          std::to_string(getpid()) + "-" +
                          std::to_string(counter++);
  std::filesystem::remove_all(dir);
  return dir;
}

/// One set-up of the sweep, as SweepRunner does it: build the plan, open a
/// cold store in a fresh directory and resolve every run's key against it.
/// Destruction removes the store's directory.
class SweepSetup {
 public:
  SweepSetup(const Options& o, const SweepShape& shape, SpanLog& log)
      : dir_(fresh_store_dir(o)) {
    const int setup_span = log.begin("setup");
    const auto t0 = Clock::now();
    {
      const ScopedSpan span(log, "plan");
      plan.emplace(fig11_base(o, shape), fig11_grid(shape));
    }
    plan_seconds = seconds_between(t0, Clock::now());
    {
      const ScopedSpan span(log, "store_open");
      store.emplace(dir_);
    }
    {
      const ScopedSpan span(log, "resolve_keys");
      for (std::size_t i = 0; i < plan->size(); ++i) {
        keys.push_back(plan->key(i));
        if (store->find(keys.back()) != nullptr) ++cache_hits;
      }
    }
    seconds = seconds_between(t0, Clock::now());
    log.end(setup_span);
  }
  ~SweepSetup() {
    store.reset();
    std::filesystem::remove_all(dir_);
  }
  SweepSetup(const SweepSetup&) = delete;
  SweepSetup& operator=(const SweepSetup&) = delete;

  std::optional<scenario::SweepPlan> plan;
  std::optional<scenario::RunStore> store;
  std::vector<scenario::RunKey> keys;
  std::size_t cache_hits = 0;
  double plan_seconds = 0.0;
  double seconds = 0.0;

 private:
  std::string dir_;
};

/// One pass of the sweep: a cold set-up, then every run through the
/// executor, the store, the record round trip and the sink, then the
/// renderers.
Pass sweep_pass(const Options& o, const SweepShape& shape, Outcome& out,
                SpanLog& log) {
  Pass pass;
  // The set-up the pass runs against. Further set-ups are timed between
  // the runs, excluded from wall_s: a set-up takes a third of a
  // millisecond, so its median is taken over many, spread over the pass.
  SweepSetup setup(o, shape, log);
  const scenario::SweepPlan& plan = *setup.plan;
  scenario::RunStore& store = *setup.store;
  std::vector<double> setup_s = {setup.seconds};
  std::vector<double> plan_s = {setup.plan_seconds};
  const std::size_t setups_per_run =
      (std::max<std::size_t>(o.setup_reps, 1) - 1) / plan.size();

  scenario::ThreadPoolExecutor executor;
  scenario::ExecuteOptions exec;
  exec.jobs = 1;
  exec.keep_reports = true;  // read the alive-peer series, then drop it
  scenario::ResultSink sink;
  sink.set_expected_replications(shape.seeds);

  std::vector<double> run_s;
  // Run wall time and rounds per grid point. The sweep's round-time sample
  // is one mean per point: each averages that point's runs.
  std::vector<double> point_wall(plan.sweep().num_points(), 0.0);
  std::vector<double> point_rounds(plan.sweep().num_points(), 0.0);
  double execute_sum = 0.0, purchase_sum = 0.0, seed_sum = 0.0;
  double put_sum = 0.0, parse_sum = 0.0, add_sum = 0.0, record_bytes = 0.0;
  double alive_rounds = 0.0, peak_alive = 0.0, rounds = 0.0;
  double transactions = 0.0, arrivals = 0.0, departures = 0.0;
  std::size_t snapshots = 0;

  double interleaved_s = 0.0;
  const auto wall0 = Clock::now();
  for (const std::size_t i : plan.all_runs()) {
    const auto s0 = Clock::now();
    for (std::size_t k = 0; k < setups_per_run; ++k) {
      const SweepSetup extra(o, shape, log);
      setup_s.push_back(extra.seconds);
      plan_s.push_back(extra.plan_seconds);
    }
    interleaved_s += seconds_between(s0, Clock::now());
    const ScopedSpan run_span(log, "run", i + 1);
    std::vector<scenario::RunResult> results;
    {
      const ScopedSpan span(log, "execute");
      const auto t0 = Clock::now();
      results = executor.execute(plan, std::span<const std::size_t>(&i, 1),
                                 exec);
      const double dt = seconds_between(t0, Clock::now());
      execute_sum += dt;
      run_s.push_back(dt);
    }
    scenario::RunResult& r = results.front();
    out.check(r.error.empty(), "run " + std::to_string(i) + ": " + r.error);
    out.check(r.metric("ledger_conserved") == 1.0,
              "run " + std::to_string(i) + ": final ledger audit failed");
    // The program audits the ledger at every snapshot; a failed audit
    // raises the run error checked above.
    const auto alive = r.report.alive_peers.values();
    out.attempted += alive.size();
    snapshots += alive.size();
    const auto& tel = r.telemetry;
    if (!alive.empty()) {
      const double mean_alive =
          std::accumulate(alive.begin(), alive.end(), 0.0) /
          static_cast<double>(alive.size());
      alive_rounds += mean_alive * static_cast<double>(tel.rounds);
      peak_alive = std::max(peak_alive,
                            *std::max_element(alive.begin(), alive.end()));
    }
    rounds += static_cast<double>(tel.rounds);
    purchase_sum += tel.purchase_phase_seconds;
    seed_sum += tel.seed_phase_seconds;
    point_wall[r.point_index] += tel.wall_seconds;
    point_rounds[r.point_index] += static_cast<double>(tel.rounds);
    transactions += r.metric("transactions");
    arrivals += r.metric("churn_arrivals");
    departures += r.metric("churn_departures");
    r.report = core::MarketReport{};

    const scenario::RunKey& key = setup.keys[i];
    {
      const ScopedSpan span(log, "store_put");
      const auto t0 = Clock::now();
      store.put(key, r);
      put_sum += seconds_between(t0, Clock::now());
    }
    // The record round trip the sweep farm ships each run through.
    std::string line;
    {
      const ScopedSpan span(log, "serialize");
      line = scenario::serialize_run_record(key, r);
    }
    record_bytes += static_cast<double>(line.size());
    {
      const ScopedSpan span(log, "parse");
      const auto t0 = Clock::now();
      const scenario::RunRecord back = scenario::parse_run_record(line);
      parse_sum += seconds_between(t0, Clock::now());
      out.check(back.key == key && scenario::serialize_run_record(
                                       back.key, back.result) == line,
                "run " + std::to_string(i) + ": record round trip differs");
    }
    {
      const ScopedSpan span(log, "sink_add");
      const auto t0 = Clock::now();
      sink.add(std::move(r));
      add_sum += seconds_between(t0, Clock::now());
    }
  }

  std::string aggregate_csv, aggregate_json, runs_csv;
  const int render_span = log.begin("render");
  const auto render0 = Clock::now();
  {
    const ScopedSpan span(log, "aggregate_csv");
    aggregate_csv = sink.aggregate_csv();
  }
  {
    const ScopedSpan span(log, "aggregate_json");
    aggregate_json = sink.aggregate_json();
  }
  {
    const ScopedSpan span(log, "runs_csv");
    runs_csv = sink.runs_csv();
  }
  const double render_s = seconds_between(render0, Clock::now());
  log.end(render_span);
  const double wall = seconds_between(wall0, Clock::now()) - interleaved_s;

  out.check(setup.cache_hits == 0, "a cold store answered a run");
  out.check(store.size() == plan.size(), "store holds every run");
  out.check(!aggregate_json.empty() && aggregate_json.front() == '[',
            "aggregate JSON renders");
  Fnv1a digest;
  digest.text(aggregate_csv);
  digest.text(runs_csv);
  pass.digest = digest.hex();

  const double runs = static_cast<double>(plan.size());
  auto& t = pass.timed;
  t["setup_s"] = median(setup_s);
  t["wall_s"] = wall;
  t["peer_rounds_per_s"] = alive_rounds / wall;
  t["runs_per_s"] = runs / wall;
  for (std::size_t p = 0; p < point_wall.size(); ++p) {
    t["sweep.point_round_ms." + std::to_string(p)] =
        ratio(point_wall[p] * 1e3, point_rounds[p]);
  }
  const double other_sum = std::max(0.0, execute_sum - purchase_sum - seed_sum);
  t["p2p.purchase_ms"] = purchase_sum * 1e3 / rounds;
  t["p2p.seed_ms"] = seed_sum * 1e3 / rounds;
  t["p2p.other_ms"] = other_sum * 1e3 / rounds;
  t["p2p.purchase_ns_per_peer"] = ratio(purchase_sum * 1e9, alive_rounds);
  t["p2p.ns_per_tx"] = ratio(purchase_sum * 1e9, transactions);
  t["scenario.plan_ms"] = median(plan_s) * 1e3;
  t["scenario.run_s_p50"] = median(run_s);
  t["scenario.run_purchase_frac"] = purchase_sum / execute_sum;
  t["scenario.store_put_us"] = put_sum * 1e6 / runs;
  // Records carry the run's timings as text, so their length varies a
  // little from pass to pass.
  t["scenario.record_bytes"] = record_bytes / runs;
  t["scenario.record_parse_us"] = parse_sum * 1e6 / runs;
  t["scenario.sink_add_us"] = add_sum * 1e6 / runs;
  t["scenario.render_ms"] = render_s * 1e3;
  t["scenario.overhead_frac"] = (wall - execute_sum) / wall;

  auto& e = pass.exact;
  e["p2p.transactions"] = transactions;
  e["p2p.churn_arrivals"] = arrivals;
  e["p2p.churn_departures"] = departures;
  e["sweep.peak_alive"] = peak_alive;

  pass.phases = {
      {"workload/pass/run/execute", "p2p.purchase", purchase_sum * 1e3},
      {"workload/pass/run/execute", "p2p.seed", seed_sum * 1e3},
      {"workload/pass/run/execute", "p2p.other", other_sum * 1e3}};
  pass.notes["run"] = "runs=" + std::to_string(plan.size()) +
                      " rounds=" + number(rounds) +
                      " snapshots=" + std::to_string(snapshots) +
                      " tx=" + number(transactions) + " (per pass)";
  pass.notes["serialize"] = "record_bytes=" + number(record_bytes);
  pass.notes["render"] =
      "csv_bytes=" + std::to_string(aggregate_csv.size() + runs_csv.size()) +
      " json_bytes=" + std::to_string(aggregate_json.size());
  return pass;
}

Outcome run_fig11_sweep(const Options& o, SpanLog& log) {
  Outcome out;
  const SweepShape shape = sweep_shape(o);
  const int root = log.begin("workload");
  repeat_passes(o, out, log,
                [&](std::size_t) { return sweep_pass(o, shape, out, log); });
  log.end(root);

  // Round-time percentiles over the grid points, each point's mean round
  // time taken as its median over passes.
  std::vector<double> round_ms;
  for (std::size_t p = 0;; ++p) {
    const auto it = out.values.find("sweep.point_round_ms." + std::to_string(p));
    if (it == out.values.end()) break;
    round_ms.push_back(it->second);
  }
  const double peak_rss = peak_rss_bytes();
  auto& v = out.values;
  v["round_ms_p50"] = percentile(round_ms, 0.5);
  v["round_ms_p90"] = percentile(round_ms, 0.9);
  v["peak_rss_mb"] = peak_rss / kMiB;
  v["bytes_per_peer"] = ratio(peak_rss, v["sweep.peak_alive"]);
  return out;
}

// ---- single-market workloads -------------------------------------------

struct MarketShape {
  p2p::ProtocolConfig cfg;
  std::size_t markets = 1;  ///< markets per pass, each from its own seed
  std::size_t warm_rounds = 0;
  std::size_t rounds = 0;   ///< measured rounds per market
};

/// BM_SimulationCoreScale's open market: arrivals 2/s and lifespan N/2, so
/// the population stays near N; heterogeneous spending (CV 0.3).
MarketShape scale_shape(const Options& o) {
  const std::size_t n = o.tiny ? 2000 : 100000;
  MarketShape shape;
  p2p::ProtocolConfig& cfg = shape.cfg;
  cfg.initial_peers = n;
  cfg.max_peers = n + n / 8 + 16;
  cfg.initial_credits = 100;
  cfg.heterogeneity.spend_rate_cv = 0.3;
  cfg.churn.enabled = true;
  cfg.churn.arrival_rate = 2.0;
  cfg.churn.mean_lifespan = static_cast<double>(n) / 2.0;
  shape.warm_rounds = o.tiny ? 5 : 20;
  shape.rounds = o.tiny ? 20 : 60;
  return shape;
}

/// adv03_stake (order book with fixed markup, churn, 10% whitewashers, 20%
/// staked seeders) with arrivals scaled so the population stays near N.
/// One order-book market's speed follows its own random trajectory, so a
/// pass runs three markets from three seeds and averages over them.
MarketShape book_shape(const Options& o) {
  const std::size_t n = o.tiny ? 300 : 2000;
  MarketShape shape;
  shape.cfg =
      scenario::ScenarioRegistry::builtin().get("adv03_stake").config.protocol;
  p2p::ProtocolConfig& cfg = shape.cfg;
  cfg.initial_peers = n;
  cfg.max_peers = n + n / 2;
  cfg.churn.arrival_rate =
      static_cast<double>(n) / cfg.churn.mean_lifespan;
  shape.markets = o.tiny ? 2 : 3;
  shape.warm_rounds = o.tiny ? 10 : 100;
  shape.rounds = o.tiny ? 20 : 100;
  return shape;
}

/// Registry counters the benchmark reads, and the metric each becomes.
constexpr std::pair<const char*, const char*> kCounterMetrics[] = {
    {"market.transactions", "p2p.transactions"},
    {"market.liquidity_failures", "p2p.liquidity_failures"},
    {"purchase.phase_one_word", "p2p.phase_one_word"},
    {"purchase.phase_two_word", "p2p.phase_two_word"},
    {"purchase.phase_generic", "p2p.phase_generic"},
    {"churn.arrivals", "p2p.churn_arrivals"},
    {"churn.departures", "p2p.churn_departures"},
    {"book.asks_posted", "market.asks_posted"},
    {"book.fills", "market.fills"},
    {"book.asks_expired", "market.asks_expired"},
    {"strat.whitewash_resets", "strategy.whitewash_resets"},
    {"strat.stake_topups", "strategy.stake_topups"},
    {"strat.stake_slashed", "strategy.stake_slashed"},
};

/// Cumulative readouts of one protocol at one instant.
struct Readout {
  std::map<std::string, double> counters;
  double posted_qty = 0.0;
  double candidates_sum = 0.0, candidates_n = 0.0;
  double queue_depth_sum = 0.0, queue_depth_n = 0.0;

  static Readout of(p2p::StreamingProtocol& proto) {
    Readout r;
    auto& m = proto.metrics();
    for (const auto& [counter, metric] : kCounterMetrics) {
      r.counters[metric] = static_cast<double>(m.counter(counter));
    }
    r.posted_qty = static_cast<double>(m.counter("book.posted_qty"));
    if (const auto* h = m.histogram("purchase.candidates")) {
      r.candidates_sum = h->sum();
      r.candidates_n = static_cast<double>(h->count());
    }
    if (const auto* h = m.histogram("sim.queue_depth")) {
      r.queue_depth_sum = h->sum();
      r.queue_depth_n = static_cast<double>(h->count());
    }
    return r;
  }
};

/// One pass of a market workload. Each market, seeded derive_seed(seed, m):
/// set-up (construction plus start(); the first market's is repeated and
/// the last one built is measured), warm-up, then the measured rounds one
/// at a time with a snapshot every 1/20 of them.
Pass market_pass(const MarketShape& shape, const Options& o, bool first,
                 Outcome& out, SpanLog& log) {
  Pass pass;
  std::vector<double> setup_s, start_s, round_ms;
  round_ms.reserve(shape.markets * shape.rounds);
  std::vector<double> balances, rates, gini_scratch;
  Readout delta;  // summed over markets: after minus before
  double wall = 0.0, round_sum = 0.0, purchase_sum = 0.0, seed_sum = 0.0;
  double alive_rounds = 0.0, depth_sum = 0.0, peak_alive = 0.0;
  double snapshot_sum = 0.0, gini_sum = 0.0, audit_sum = 0.0;
  double cells_in_use = 0.0, cell_capacity = 0.0, edges_dropped = 0.0;
  double pending_events = 0.0, alive_at_end = 0.0;
  std::size_t snapshots = 0, gini_calls = 0;
  Fnv1a digest;

  for (std::size_t market = 0; market < shape.markets; ++market) {
    p2p::ProtocolConfig cfg = shape.cfg;
    cfg.seed = util::derive_seed(o.seed, market);
    std::unique_ptr<sim::Simulator> sim;
    std::unique_ptr<p2p::StreamingProtocol> proto;
    const std::size_t reps =
        market == 0 ? std::max<std::size_t>(o.setup_reps, 1) : 1;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      proto.reset();  // the protocol refers to the simulator: drop it first
      sim.reset();
      const int setup_span = log.begin("setup");
      const auto t0 = Clock::now();
      {
        const ScopedSpan span(log, "construct");
        sim = std::make_unique<sim::Simulator>();
        proto = std::make_unique<p2p::StreamingProtocol>(cfg, *sim);
      }
      const auto t1 = Clock::now();
      {
        const ScopedSpan span(log, "start");
        proto->start();
      }
      const auto t2 = Clock::now();
      log.end(setup_span);
      setup_s.push_back(seconds_between(t0, t2));
      start_s.push_back(seconds_between(t1, t2));
      if (first && market == 0 && rep == 0) {
        out.values["mem.setup_hwm_mb"] = peak_rss_bytes() / kMiB;
      }
    }
    peak_alive = std::max(peak_alive, static_cast<double>(proto->num_alive()));

    const double round_s = cfg.round_seconds;
    {
      const ScopedSpan span(log, "warmup");
      sim->run_until(static_cast<double>(shape.warm_rounds) * round_s);
    }

    const Readout before = Readout::of(*proto);
    const std::size_t snapshot_every =
        std::max<std::size_t>(shape.rounds / kSnapshotsPerRun, 1);
    const auto wall0 = Clock::now();
    for (std::size_t r = 1; r <= shape.rounds; ++r) {
      const double purchase0 = proto->purchase_phase_seconds();
      const double seed0 = proto->seed_phase_seconds();
      const double tx0 = log.enabled()
          ? static_cast<double>(proto->metrics().counter("market.transactions"))
          : 0.0;
      const int span = log.begin("round", r);
      const auto t0 = Clock::now();
      sim->run_until(static_cast<double>(shape.warm_rounds + r) * round_s);
      const double dt = seconds_between(t0, Clock::now());
      const double purchase = proto->purchase_phase_seconds() - purchase0;
      const double seed = proto->seed_phase_seconds() - seed0;
      const double alive = static_cast<double>(proto->num_alive());
      if (log.enabled()) {
        const double tx = static_cast<double>(
            proto->metrics().counter("market.transactions"));
        log.end(span, "\"purchase_ms\":" + number(purchase * 1e3) +
                          ",\"seed_ms\":" + number(seed * 1e3) +
                          ",\"alive\":" + number(alive) +
                          ",\"transactions\":" + number(tx - tx0));
      }
      round_ms.push_back(dt * 1e3);
      round_sum += dt;
      purchase_sum += purchase;
      seed_sum += seed;
      alive_rounds += alive;
      peak_alive = std::max(peak_alive, alive);
      depth_sum += proto->book_round_stats().depth;

      if (r % snapshot_every != 0) continue;
      // The per-snapshot readout CreditMarket takes, call by call.
      const ScopedSpan snap(log, "snapshot", r);
      const auto s0 = Clock::now();
      {
        const ScopedSpan s(log, "balance_snapshot");
        proto->balance_snapshot(balances);
      }
      {
        const ScopedSpan s(log, "mean_buffer_fill");
        digest.value(proto->mean_buffer_fill());
      }
      {
        const ScopedSpan s(log, "spend_rate_snapshot");
        proto->spend_rate_snapshot(rates);
      }
      for (const std::vector<double>* sample : {&balances, &rates}) {
        const ScopedSpan s(log, "gini");
        const auto g0 = Clock::now();
        digest.value(econ::gini(*sample, gini_scratch));
        gini_sum += seconds_between(g0, Clock::now());
        ++gini_calls;
      }
      bool audit_ok = false;
      {
        const ScopedSpan s(log, "ledger_audit");
        const auto a0 = Clock::now();
        audit_ok = proto->ledger().audit();
        audit_sum += seconds_between(a0, Clock::now());
      }
      out.check(audit_ok, "ledger audit failed at round " + std::to_string(r));
      snapshot_sum += seconds_between(s0, Clock::now());
      ++snapshots;
    }
    wall += seconds_between(wall0, Clock::now());
    const Readout after = Readout::of(*proto);

    {
      // Output digest: final balances of the alive peers, trade totals,
      // population and stream head (plus the snapshot readouts above).
      const ScopedSpan span(log, "digest");
      for (const p2p::PeerId id : proto->alive_span()) {
        digest.value(id);
        digest.value(proto->ledger().balance(id));
      }
      auto& m = proto->metrics();
      digest.value(m.counter("market.transactions"));
      digest.value(m.counter("market.volume"));
      digest.value(proto->num_alive());
      digest.value(proto->stream_head());
    }
    out.check(proto->ledger().audit(), "final ledger audit failed");

    for (const auto& [counter, metric] : kCounterMetrics) {
      delta.counters[metric] +=
          after.counters.at(metric) - before.counters.at(metric);
    }
    delta.posted_qty += after.posted_qty - before.posted_qty;
    delta.candidates_sum += after.candidates_sum - before.candidates_sum;
    delta.candidates_n += after.candidates_n - before.candidates_n;
    delta.queue_depth_sum += after.queue_depth_sum - before.queue_depth_sum;
    delta.queue_depth_n += after.queue_depth_n - before.queue_depth_n;
    const p2p::Overlay& overlay = proto->overlay();
    cells_in_use += static_cast<double>(overlay.edge_cells_in_use());
    cell_capacity += static_cast<double>(overlay.edge_cell_capacity());
    edges_dropped += static_cast<double>(overlay.edges_dropped());
    pending_events += static_cast<double>(sim->pending_events());
    alive_at_end += static_cast<double>(proto->num_alive());
    if (first && market + 1 == shape.markets) {
      out.values["mem.steady_rss_mb"] = current_rss_bytes() / kMiB;
    }
  }
  pass.digest = digest.hex();

  const double rounds = static_cast<double>(shape.markets * shape.rounds);
  auto& e = pass.exact;
  for (const auto& [metric, value] : delta.counters) e[metric] = value;
  const double tx = e["p2p.transactions"];
  const double one = e["p2p.phase_one_word"];
  const double two = e["p2p.phase_two_word"];
  const double generic = e["p2p.phase_generic"];
  e["p2p.fast_path_ratio"] = ratio(one + two, one + two + generic);
  e["p2p.candidates_mean"] = ratio(delta.candidates_sum, delta.candidates_n);
  e["p2p.overlay_cells_in_use"] = cells_in_use;
  e["p2p.overlay_cell_capacity"] = cell_capacity;
  e["p2p.overlay_cell_use_ratio"] = ratio(cells_in_use, cell_capacity);
  e["p2p.overlay_edges_dropped"] = edges_dropped;
  e["sim.pending_events_per_peer"] = ratio(pending_events, alive_at_end);
  e["sim.queue_depth_mean"] =
      ratio(delta.queue_depth_sum, delta.queue_depth_n);
  e["market.fill_ratio"] = ratio(e["market.fills"], delta.posted_qty);
  e["market.depth_mean"] = depth_sum / rounds;
  e["market.peak_alive"] = peak_alive;

  auto& t = pass.timed;
  t["setup_s"] = median(setup_s);
  t["p2p.start_s"] = median(start_s);
  t["wall_s"] = wall;
  t["peer_rounds_per_s"] = alive_rounds / wall;
  t["round_ms_p50"] = percentile(round_ms, 0.5);
  t["round_ms_p90"] = percentile(round_ms, 0.9);
  t["runs_per_s"] = static_cast<double>(shape.markets) / wall;
  t["p2p.purchase_ms"] = purchase_sum * 1e3 / rounds;
  t["p2p.seed_ms"] = seed_sum * 1e3 / rounds;
  t["p2p.other_ms"] = (round_sum - purchase_sum - seed_sum) * 1e3 / rounds;
  t["p2p.purchase_ns_per_peer"] = ratio(purchase_sum * 1e9, alive_rounds);
  t["p2p.ns_per_tx"] = ratio(purchase_sum * 1e9, tx);
  t["core.snapshot_us"] = ratio(snapshot_sum * 1e6, static_cast<double>(snapshots));
  t["econ.gini_us"] = ratio(gini_sum * 1e6, static_cast<double>(gini_calls));
  t["p2p.ledger_audit_us"] = ratio(audit_sum * 1e6, static_cast<double>(snapshots));

  pass.phases = {
      {"workload/pass/round", "p2p.purchase", purchase_sum * 1e3},
      {"workload/pass/round", "p2p.seed", seed_sum * 1e3},
      {"workload/pass/round", "p2p.other",
       (round_sum - purchase_sum - seed_sum) * 1e3}};
  const auto count = [&](const char* metric) { return number(e[metric]); };
  pass.notes["round"] =
      "tx=" + count("p2p.transactions") +
      " one_word=" + count("p2p.phase_one_word") +
      " two_word=" + count("p2p.phase_two_word") +
      " generic=" + count("p2p.phase_generic") +
      " arrivals=" + count("p2p.churn_arrivals") +
      " edge_cell_bytes=" + number(cells_in_use * 2 * sizeof(std::uint32_t)) +
      " (per pass)";
  pass.notes["setup"] =
      "markets=" + std::to_string(shape.markets) +
      " peers=" + std::to_string(shape.cfg.initial_peers) +
      " hwm_bytes=" + number(out.values["mem.setup_hwm_mb"] * kMiB);
  pass.notes["snapshot"] =
      "snapshots=" + std::to_string(snapshots) + " sample_bytes=" +
      std::to_string((balances.size() + rates.size()) * sizeof(double));
  return pass;
}

Outcome run_market(const MarketShape& shape, const Options& o, SpanLog& log) {
  Outcome out;
  const int root = log.begin("workload");
  repeat_passes(o, out, log, [&](std::size_t index) {
    return market_pass(shape, o, index == 0, out, log);
  });
  log.end(root);
  const double peak_rss = peak_rss_bytes();
  out.values["peak_rss_mb"] = peak_rss / kMiB;
  out.values["bytes_per_peer"] = peak_rss / out.values["market.peak_alive"];
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig11-sweep", "scale-100k",
                                                 "book-adv"};
  return names;
}

Outcome run_workload(const Options& options, SpanLog& log) {
  if (options.workload == "fig11-sweep") return run_fig11_sweep(options, log);
  if (options.workload == "scale-100k") {
    return run_market(scale_shape(options), options, log);
  }
  if (options.workload == "book-adv") {
    return run_market(book_shape(options), options, log);
  }
  throw std::invalid_argument("unknown workload: " + options.workload);
}

double time_bootstrap_graph(const Options& options, SpanLog& log) {
  std::size_t n = 0;
  if (options.workload == "fig11-sweep") {
    n = fig11_base(options, sweep_shape(options)).config.protocol.initial_peers;
  } else if (options.workload == "scale-100k") {
    n = scale_shape(options).cfg.initial_peers;
  } else {
    n = book_shape(options).cfg.initial_peers;
  }
  // The parameters StreamingProtocol::start() bootstraps its overlay with.
  graph::ScaleFreeParams params;
  params.exponent = 2.5;
  params.target_mean_degree = p2p::ProtocolConfig{}.overlay_mean_degree;
  util::Rng rng(options.seed);
  const ScopedSpan span(log, "scale_free");
  const auto t0 = Clock::now();
  const graph::Graph g = graph::scale_free(n, params, rng);
  const double dt = seconds_between(t0, Clock::now());
  if (g.num_nodes() != n) throw std::runtime_error("bootstrap graph size");
  return dt;
}

std::string expected_digest(const Options& options) {
  if (options.tiny || options.seed != kDefaultSeed) return {};
  // Recorded on x86-64 Linux, g++ 12.2, Release build.
  static const std::map<std::string, std::string> recorded = {
      {"fig11-sweep", "bdede42ab3a60032"},
      {"scale-100k", "65e09080fcd1180b"},
      {"book-adv", "869aa469d66f3128"},
  };
  const auto it = recorded.find(options.workload);
  return it == recorded.end() ? std::string{} : it->second;
}

}  // namespace perfbench
