#include "scenario/runner.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "scenario/store.hpp"
#include "util/assert.hpp"

namespace creditflow::scenario {

SweepRunner::SweepRunner(ScenarioSpec base, SweepSpec sweep)
    : SweepRunner(std::move(base), std::move(sweep), Options()) {}

SweepRunner::SweepRunner(ScenarioSpec base, SweepSpec sweep, Options options)
    : base_(std::move(base)),
      sweep_(std::move(sweep)),
      options_(std::move(options)) {
  CF_EXPECTS(sweep_.seeds >= 1);
  CF_EXPECTS(options_.shard_count >= 1);
  CF_EXPECTS_MSG(options_.shard_index < options_.shard_count,
                 "shard index must be < shard count");
  CF_EXPECTS_MSG(options_.cache_dir.empty() || !options_.keep_reports,
                 "the run cache stores metrics only; caching a sweep "
                 "requires keep_reports = false");
}

std::vector<RunResult> SweepRunner::run() {
  CF_EXPECTS_MSG(!ran_, "SweepRunner::run may only be called once");
  ran_ = true;

  const SweepPlan plan(base_, sweep_);
  const std::vector<std::size_t> indices =
      options_.shard_count > 1
          ? plan.shard(options_.shard_index, options_.shard_count)
          : plan.all_runs();

  std::optional<RunStore> store;
  if (!options_.cache_dir.empty()) store.emplace(options_.cache_dir);

  // Resolve cache hits first (they complete "instantly" — the progress
  // callback sees them before any fresh run), collecting the misses for
  // the executor.
  std::vector<RunResult> results;
  results.reserve(indices.size());
  std::vector<std::size_t> misses;
  std::vector<std::size_t> miss_slots;  // position of each miss in results
  for (const std::size_t run_index : indices) {
    const RunResult* cached =
        store ? store->find(plan.key(run_index)) : nullptr;
    if (cached != nullptr) {
      // Re-label with the *current* plan's metadata: after a grid widens,
      // the cached run's indices may no longer match, but its key — and
      // therefore its metrics, seed, and telemetry — still do.
      RunResult hit = plan.labelled_result(run_index, *cached);
      hit.telemetry.from_cache = true;
      ++cache_hits_;
      if (options_.on_result) options_.on_result(hit);
      results.push_back(std::move(hit));
    } else {
      misses.push_back(run_index);
      miss_slots.push_back(results.size());
      results.emplace_back();  // placeholder, filled below
    }
  }

  ExecuteOptions exec_options;
  exec_options.jobs = options_.jobs;
  exec_options.keep_reports = options_.keep_reports;
  exec_options.series_every = options_.series_every;
  // The coordinator's order for each fresh run: the store first, so a
  // sweep killed after this run keeps it; then its series file; then the
  // caller.
  exec_options.on_result = [&](const RunResult& r,
                               const std::string& series_csv) {
    if (store) store->put(plan.key(r.run_index), r);
    write_series_csv(options_.series_out_prefix, r.run_index, series_csv);
    if (options_.on_result) options_.on_result(r);
  };

  ThreadPoolExecutor default_executor;
  Executor& executor =
      options_.executor != nullptr ? *options_.executor : default_executor;
  std::vector<RunResult> fresh = executor.execute(plan, misses, exec_options);
  CF_ENSURES_MSG(fresh.size() == misses.size(),
                 "executor returned a result count that does not match the "
                 "requested run list");
  executed_ = fresh.size();

  for (std::size_t k = 0; k < fresh.size(); ++k) {
    results[miss_slots[k]] = std::move(fresh[k]);
  }
  return results;
}

RunResult run_scenario(const ScenarioSpec& spec) {
  // The spec runs exactly as written — no seed derivation — so a single
  // scenario produces the same stream here, in market_cli's single-run
  // mode, and in a direct CreditMarket construction. Only sweep
  // replications derive per-run seeds.
  RunResult result;
  execute_spec_into(spec, result, /*keep_report=*/true);
  return result;
}

}  // namespace creditflow::scenario
