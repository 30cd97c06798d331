// CreditFlow scenario engine: Executor — how a SweepPlan's runs get
// computed.
//
// An Executor turns plan entries into RunResults. The in-process
// ThreadPoolExecutor preserves the engine's determinism contract: results
// land in slots keyed by position, so the output — and everything
// aggregated from it — is identical whether a run list executes on 1
// thread or N, in one process or as shards merged later. The other
// Executor is the work-stealing Coordinator (coordinator.hpp), which leases
// the runs to socket workers. SweepRunner (runner.hpp) drives either one:
// it recalls cache hits, hands the executor only the misses, and stores
// each run the executor passes to on_result.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/report.hpp"
#include "scenario/plan.hpp"

namespace creditflow::scenario {

/// Per-run wall-clock telemetry, measured around the simulation by the
/// executor (or restored from the cache for skipped runs).
struct RunTelemetry {
  double wall_seconds = 0.0;            ///< end-to-end run wall time
  double purchase_phase_seconds = 0.0;  ///< protocol hot-path share of it
  /// Remaining per-phase breakdown of the round loop: chunk seeding and
  /// taxation redistribution. Absent from records written before the
  /// breakdown existed; such runs read back as 0.
  double seed_phase_seconds = 0.0;
  double tax_phase_seconds = 0.0;
  std::uint64_t rounds = 0;             ///< protocol rounds simulated
  /// Growth of the process peak-RSS high-water mark across this run
  /// (getrusage delta, bytes). 0 when the run fit entirely in memory the
  /// process had already touched — which is the expected steady state of an
  /// allocation-free simulation core; a nonzero value on a warmed-up worker
  /// flags a run that grew the footprint. The high-water mark is
  /// process-global, so with parallel workers (jobs > 1) growth caused by
  /// one run can land in a concurrent run's window — attribute per-run
  /// values only from --jobs 1 sweeps (the perf-measurement mode); under
  /// parallelism read it as "the sweep grew while this run was in flight".
  /// 0 on platforms without getrusage.
  std::uint64_t peak_rss_bytes = 0;
  /// PR-7 fixed-pool exhaustion events, surfaced from the warn-once
  /// stderr lines into the run record: preferential-attachment edges the
  /// overlay dropped and arrivals refused for lack of a peer slot. Always
  /// 0 on healthy runs; nonzero flags an under-provisioned capacity.
  /// Absent from records written before these existed (read back as 0).
  std::uint64_t overlay_edges_dropped = 0;
  std::uint64_t churn_arrivals_dropped = 0;
  bool from_cache = false;  ///< true when the run store answered instead
};

/// Outcome of one run of a sweep.
struct RunResult {
  std::size_t run_index = 0;
  std::size_t point_index = 0;
  std::size_t seed_index = 0;
  std::uint64_t seed = 0;  ///< the derived per-run protocol seed

  /// Axis values of this run's grid point, in axis order.
  std::vector<std::pair<std::string, double>> params;
  /// Scalar readouts (standard_metrics order): gini, buffer fill, spend
  /// rates, exchange efficiency, ...
  std::vector<std::pair<std::string, double>> metrics;
  /// Wall-time/rounds telemetry of this run.
  RunTelemetry telemetry;
  /// Full report (time series, final snapshots); cleared when the executor
  /// runs with keep_reports = false (and never present on cache hits).
  core::MarketReport report;
  /// Non-empty when the run threw; metrics are then empty.
  std::string error;

  /// Metric by name; NaN when absent.
  [[nodiscard]] double metric(std::string_view name) const;
};

/// The scalar readouts extracted from every run, in emission order.
[[nodiscard]] std::vector<std::pair<std::string, double>> standard_metrics(
    const core::MarketConfig& cfg, const core::MarketReport& report);

/// Execution knobs shared by every executor.
struct ExecuteOptions {
  /// Worker threads; 0 → hardware concurrency. Ignored by executors with
  /// no local pool.
  std::size_t jobs = 0;
  /// Keep each run's full MarketReport (time series + final vectors).
  /// Disable for huge grids where only the scalar metrics matter.
  bool keep_reports = true;
  /// Per-round time-series collection (observability — deliberately off
  /// the RunKey, so it never invalidates caches): when > 0, every run
  /// samples its market every N rounds and hands the CSV to on_result.
  std::size_t series_every = 0;
  /// Called once per completed run with its series CSV ("" when
  /// series_every is 0 or the run threw), serialized across worker threads
  /// — safe to print from or to append to a store. The result is final.
  /// An exception thrown here ends execute(), which rethrows it.
  std::function<void(const RunResult&, const std::string& series_csv)>
      on_result;
};

/// Computes plan entries. Implementations must call options.on_result once
/// per completed run (the sweep runner stores runs from it) and must return
/// results positionally aligned with the requested indices. execute() may
/// be single-use: a Coordinator serves one sweep and refuses a second call,
/// while a ThreadPoolExecutor runs any number.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Execute `run_indices` (entries of `plan`); result k is the outcome of
  /// run_indices[k]. A run that throws yields a RunResult with `error` set
  /// rather than propagating.
  [[nodiscard]] virtual std::vector<RunResult> execute(
      const SweepPlan& plan, std::span<const std::size_t> run_indices,
      const ExecuteOptions& options) = 0;
};

/// The default in-process executor: a worker pool over an atomic cursor.
/// Deterministic by construction — each run is a pure function of the plan
/// entry, and completion order never influences placement.
class ThreadPoolExecutor final : public Executor {
 public:
  [[nodiscard]] std::vector<RunResult> execute(
      const SweepPlan& plan, std::span<const std::size_t> run_indices,
      const ExecuteOptions& options) override;
};

/// Execute one fully-instantiated spec into a pre-labelled result slot,
/// capturing errors and telemetry. The shared primitive under every
/// executor and run_scenario(). When series_every > 0 and series_csv is
/// non-null, the run also collects a per-round time series and stores its
/// CSV rendering into *series_csv (untouched when the run throws).
void execute_spec_into(const ScenarioSpec& spec, RunResult& result,
                       bool keep_report, std::size_t series_every = 0,
                       std::string* series_csv = nullptr);

}  // namespace creditflow::scenario
