// CreditFlow scenario engine: SweepRunner — the facade over the sweep
// execution API.
//
// The API splits into three composable pieces: SweepPlan (plan.hpp) — the
// pure enumerable run list with content-addressed RunKeys; Executor
// (executor.hpp) — how runs get computed (in-process thread pool by
// default); and RunStore (store.hpp) — the on-disk cache consulted before
// executing and appended to as each run completes. SweepRunner wires them
// together:
//
//   plan runs → partition (optional shard i/N) → cache lookup →
//   execute the misses, storing each as it completes → merge by run_index
//
// so a sweep killed midway keeps every run it finished, re-running a grid
// after adding axes or seeds only computes the keys the store has not
// seen, and a run list split across processes merges back into
// byte-identical output. Existing callers keep compiling: the (base,
// sweep[, options]) constructor and run() behave exactly as the pre-split
// monolithic runner did when no cache/shard option is set.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/executor.hpp"
#include "scenario/plan.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"

namespace creditflow::scenario {

/// Executes a sweep: plan + executor + store composition.
class SweepRunner {
 public:
  struct Options {
    /// Worker threads; 0 → hardware concurrency.
    std::size_t jobs = 0;
    /// Keep each run's full MarketReport (time series + final vectors).
    /// Disable for huge grids where only the scalar metrics matter.
    bool keep_reports = true;
    /// Called for each cache hit (telemetry.from_cache), then after each
    /// fresh run is stored (from worker threads, serialized — safe to print
    /// from). Progress reporting only; results are final.
    std::function<void(const RunResult&)> on_result;

    /// Content-addressed run cache directory; empty disables caching.
    /// Runs already in the store are not re-executed. Requires
    /// keep_reports == false: the store holds scalar metrics + telemetry,
    /// never full reports.
    std::string cache_dir;

    /// Execute only shard shard_index of shard_count (strided partition of
    /// the run list; see SweepPlan::shard). The returned results cover just
    /// that shard; partial sets from all shards merged by run_index
    /// reproduce the single-process output byte for byte.
    std::size_t shard_index = 0;
    std::size_t shard_count = 1;

    /// Executor override (not owned; must outlive the runner). nullptr →
    /// the built-in in-process ThreadPoolExecutor.
    Executor* executor = nullptr;

    /// Per-round time-series collection: each freshly-executed run writes
    /// "<series_out_prefix>.run<idx>.csv" (write_series_csv) when both are
    /// set. Off the RunKey — cache hits skip the simulation and
    /// therefore produce no series.
    std::size_t series_every = 0;
    std::string series_out_prefix;
  };

  SweepRunner(ScenarioSpec base, SweepSpec sweep);
  SweepRunner(ScenarioSpec base, SweepSpec sweep, Options options);

  /// Execute (or recall from cache) every run of this runner's shard;
  /// returns results ordered by run_index. Callable once per instance.
  [[nodiscard]] std::vector<RunResult> run();

  /// Runs answered by the cache / freshly executed in the last run().
  [[nodiscard]] std::size_t cache_hits() const { return cache_hits_; }
  [[nodiscard]] std::size_t executed() const { return executed_; }

  [[nodiscard]] const ScenarioSpec& base() const { return base_; }
  [[nodiscard]] const SweepSpec& sweep() const { return sweep_; }

 private:
  ScenarioSpec base_;
  SweepSpec sweep_;
  Options options_;
  std::size_t cache_hits_ = 0;
  std::size_t executed_ = 0;
  bool ran_ = false;
};

/// Convenience: run a single scenario synchronously, exactly as written —
/// the spec's own seed is used verbatim (unlike sweep runs, which derive a
/// per-run stream), so the result matches a direct CreditMarket run of
/// spec.materialize().
[[nodiscard]] RunResult run_scenario(const ScenarioSpec& spec);

}  // namespace creditflow::scenario
