// perfbench: the three workloads. Each builds its inputs from the seed,
// drives the program through its public API, times its own calls from
// outside, and checks the program's outputs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// The seed whose output digests are recorded (see expected_digest), and
/// BENCHMARK.json's run_seconds.
constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kDefaultSeconds = 30;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  int seconds = kDefaultSeconds;  ///< passes repeat until this has passed
  bool tiny = false;             ///< self-test size: few peers and rounds
  std::size_t setup_reps = 1;    ///< set-ups timed per pass
  std::string work_dir;          ///< scratch directory (cold run stores)
};

/// What one pass of a workload measured and checked.
struct Outcome {
  std::map<std::string, double> values;  ///< metric name → value
  std::uint64_t attempted = 0;           ///< checks made
  std::uint64_t failed = 0;              ///< checks that failed
  std::vector<std::string> problems;     ///< one line per failed check
  std::string digest;                    ///< hex FNV-1a of the outputs
  /// Exact counts and bytes per span name, printed in the layer table.
  std::map<std::string, std::string> notes;
  /// Time the program reports for its own phases (purchase_phase_seconds
  /// and the like), split out under the span path whose time contains it.
  struct PhaseRow {
    std::string under;  ///< span path, e.g. "workload/round"
    std::string name;
    double total_ms = 0.0;
  };
  std::vector<PhaseRow> phases;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      problems.push_back(what);
    }
  }
};

/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run one pass of `options.workload`, recording spans into `log` when it is
/// enabled. Throws std::invalid_argument for an unknown workload.
[[nodiscard]] Outcome run_workload(const Options& options, SpanLog& log);

/// Time one standalone bootstrap-overlay generation at the workload's
/// initial population (the graph layer's share of set-up), in seconds.
[[nodiscard]] double time_bootstrap_graph(const Options& options,
                                          SpanLog& log);

/// Digest recorded for this workload at the default seed;
/// empty when none is recorded.
[[nodiscard]] std::string expected_digest(const Options& options);

}  // namespace perfbench
