// Shared helpers for the figure benches: environment-based scaling, sweep
// runner options, and table emission.
//
// Every fig*_ binary regenerates one figure of the paper's evaluation as an
// aligned console table (and CSV when CREDITFLOW_CSV_DIR is set). Simulated
// durations can be scaled with CREDITFLOW_BENCH_SCALE (default 1.0; e.g. 0.2
// for a quick smoke run).
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "econ/gini.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "util/table.hpp"

namespace creditflow::bench {

/// Horizon multiplier from CREDITFLOW_BENCH_SCALE.
inline double time_scale() {
  const char* env = std::getenv("CREDITFLOW_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0.0 ? v : 1.0;
}

/// Runner options for sweeps that only read scalar metrics (ablation
/// grids): reports are dropped, and when CREDITFLOW_CACHE_DIR is set the
/// sweep runs against that content-addressed run cache, so re-running a
/// bench after touching one configuration recomputes only the changed
/// grid points. Sweeps that read time series out of RunResult::report
/// must NOT use this.
inline scenario::SweepRunner::Options metrics_only_options() {
  scenario::SweepRunner::Options options;
  options.keep_reports = false;
  if (const char* dir = std::getenv("CREDITFLOW_CACHE_DIR")) {
    if (*dir != '\0') options.cache_dir = dir;
  }
  return options;
}

/// Abort loudly if a sweep run failed — a failed run carries an empty
/// report, which would otherwise render as an empty table (or trip a
/// time-series precondition) with the original error discarded.
inline void die_if_failed(const scenario::RunResult& run) {
  if (!run.error.empty()) {
    std::cerr << "sweep run " << run.run_index
              << " failed: " << run.error << "\n";
    std::exit(1);
  }
}

inline scenario::RunResult require_ok(scenario::RunResult run) {
  die_if_failed(run);
  return run;
}

inline std::vector<scenario::RunResult> require_ok(
    std::vector<scenario::RunResult> runs) {
  for (const auto& run : runs) die_if_failed(run);
  return runs;
}

/// Print the table and write the CSV twin if configured.
inline void emit(const util::ConsoleTable& table, const std::string& name) {
  table.print();
  if (const auto path = util::write_csv_if_configured(table, name)) {
    std::cout << "[csv] " << *path << "\n";
  }
  std::cout << "\n";
}

}  // namespace creditflow::bench
