// CreditFlow scenario engine: ResultSink — aggregation of sweep runs into
// per-grid-point statistics and their CSV/JSON/console renderings.
//
// Runs are grouped by grid point; each metric aggregates across the seed
// replications into mean ± stddev ± 95% CI. The sink holds every run and
// aggregates by scanning them in run-index order, so the emitted bytes are
// the same regardless of completion order, worker count, or shard-merge
// interleaving.
#pragma once

#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "scenario/runner.hpp"
#include "util/table.hpp"

namespace creditflow::scenario {

/// Mean ± spread of one metric across a grid point's replications.
struct MetricStat {
  double mean = 0.0;
  double stddev = 0.0;  ///< sample stddev (n-1); 0 for a single replication
  double ci95 = 0.0;    ///< 1.96 * stddev / sqrt(n)
  std::size_t n = 0;
};

/// One aggregated grid point.
struct AggregateRow {
  std::size_t point_index = 0;
  std::vector<std::pair<std::string, double>> params;
  std::size_t seeds = 0;     ///< successful runs aggregated
  std::size_t failures = 0;  ///< runs that errored (excluded from stats)
  std::vector<std::pair<std::string, MetricStat>> metrics;
  /// Error messages of the failed runs, in run order (one per failure) —
  /// surfaced so a failed grid point explains itself instead of just
  /// counting.
  std::vector<std::string> errors;
};

/// Collects RunResults and renders their aggregates.
class ResultSink {
 public:
  /// Add one run. A run index the sink already holds is a precondition
  /// violation: merging the same record file twice must fail, not
  /// double-count that file's runs.
  void add(RunResult result);
  void add_all(std::vector<RunResult> results);

  /// Runs added so far (including errored ones).
  [[nodiscard]] std::size_t size() const { return runs_.size(); }
  /// The collected runs, in run-index order (re-sorted lazily on read, so
  /// interleaved shard merges cost one O(n log n) sort, not per-add work).
  [[nodiscard]] const std::vector<RunResult>& runs() const;

  /// Include wall-clock telemetry columns (wall_seconds,
  /// purchase_phase_seconds, peak_rss_bytes) in runs_csv(). Off by default:
  /// timing is machine-dependent, and the default emission stays
  /// byte-reproducible across reruns, worker counts, and shard merges.
  void set_timing_columns(bool enabled) { timing_columns_ = enabled; }

  /// Declare how many runs every grid point will receive (the sweep's
  /// seeds). Adding a run to a point that already holds that many is then
  /// a precondition violation. 0 (the default) disables the check.
  void set_expected_replications(std::size_t runs_per_point) {
    expected_replications_ = runs_per_point;
  }

  /// Per-grid-point aggregation, ordered by point index.
  [[nodiscard]] std::vector<AggregateRow> aggregate() const;

  /// Raw per-run CSV: run metadata + axis values + every metric + rounds
  /// (and, with set_timing_columns(true), per-run wall-time/RSS telemetry).
  [[nodiscard]] std::string runs_csv() const;
  /// Aggregated CSV: axis values + seeds + {metric}_mean/_sd/_ci95 columns.
  [[nodiscard]] std::string aggregate_csv() const;
  /// Aggregated JSON array (objects mirror AggregateRow).
  [[nodiscard]] std::string aggregate_json() const;
  /// Console table of selected metrics ("mean ± ci95" cells).
  [[nodiscard]] util::ConsoleTable aggregate_table(
      const std::string& title,
      std::span<const std::string> metric_names) const;

 private:
  void ensure_sorted() const;

  // Keyed, not indexed: a run record may carry any 64-bit index.
  std::unordered_set<std::size_t> have_run_;  ///< run indices held
  std::unordered_map<std::size_t, std::size_t> point_runs_;  ///< by point
  std::size_t expected_replications_ = 0;  ///< 0 = unchecked

  // Mutable so the const renderings can restore run-index order lazily;
  // logically the sink always *is* sorted, the flag just defers the work.
  mutable std::vector<RunResult> runs_;
  mutable bool sorted_ = true;
  bool timing_columns_ = false;
};

}  // namespace creditflow::scenario
