// Tests for the parallel sweep runner and the result sink: thread-count
// invariance (the determinism contract), error capture, metric extraction,
// and mean ± CI aggregation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>

#include "scenario/scenario.hpp"

namespace creditflow::scenario {
namespace {

/// A market small enough that a full grid runs in well under a second.
ScenarioSpec tiny_base() {
  ScenarioSpec spec;
  spec.name = "tiny";
  spec.config.protocol.initial_peers = 40;
  spec.config.protocol.max_peers = 40;
  spec.config.protocol.initial_credits = 30;
  spec.config.protocol.seed = 2012;
  spec.config.horizon = 60.0;
  spec.config.snapshot_interval = 15.0;
  return spec;
}

SweepSpec tiny_sweep() {
  SweepSpec sweep;
  sweep.axes.push_back(SweepAxis::parse("credits=20,40"));
  sweep.axes.push_back(SweepAxis::parse("tax.rate=0,0.2"));
  sweep.seeds = 2;
  return sweep;
}

std::vector<RunResult> run_with_jobs(std::size_t jobs) {
  SweepRunner::Options options;
  options.jobs = jobs;
  SweepRunner runner(tiny_base(), tiny_sweep(), options);
  return runner.run();
}

TEST(SweepRunner, ParallelMatchesSerialBitForBit) {
  const auto serial = run_with_jobs(1);
  const auto parallel = run_with_jobs(4);
  ASSERT_EQ(serial.size(), 8u);
  ASSERT_EQ(parallel.size(), 8u);

  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(serial[i].run_index, parallel[i].run_index);
    EXPECT_EQ(serial[i].seed, parallel[i].seed);
    ASSERT_EQ(serial[i].metrics.size(), parallel[i].metrics.size());
    for (std::size_t k = 0; k < serial[i].metrics.size(); ++k) {
      EXPECT_EQ(serial[i].metrics[k].first, parallel[i].metrics[k].first);
      const double a = serial[i].metrics[k].second;
      const double b = parallel[i].metrics[k].second;
      if (std::isnan(a)) {
        EXPECT_TRUE(std::isnan(b)) << serial[i].metrics[k].first;
      } else {
        EXPECT_EQ(a, b) << serial[i].metrics[k].first;  // bit-identical
      }
    }
  }

  // The emitted artifacts are byte-identical too.
  ResultSink sink_serial;
  sink_serial.add_all(serial);
  ResultSink sink_parallel;
  sink_parallel.add_all(parallel);
  EXPECT_EQ(sink_serial.runs_csv(), sink_parallel.runs_csv());
  EXPECT_EQ(sink_serial.aggregate_csv(), sink_parallel.aggregate_csv());
  EXPECT_EQ(sink_serial.aggregate_json(), sink_parallel.aggregate_json());
}

TEST(SweepRunner, MoreJobsThanRunsIsFine) {
  SweepRunner::Options options;
  options.jobs = 32;
  SweepRunner runner(tiny_base(), tiny_sweep(), options);
  EXPECT_EQ(runner.run().size(), 8u);
}

TEST(SweepRunner, RunIndexLayoutAndDistinctSeeds) {
  const auto results = run_with_jobs(2);
  std::set<std::uint64_t> seeds;
  for (const auto& r : results) {
    EXPECT_EQ(r.point_index, r.run_index / 2);
    EXPECT_EQ(r.seed_index, r.run_index % 2);
    EXPECT_TRUE(r.error.empty()) << r.error;
    seeds.insert(r.seed);
    ASSERT_EQ(r.params.size(), 2u);
    EXPECT_EQ(r.params[0].first, "credits");
    EXPECT_EQ(r.params[1].first, "tax.rate");
  }
  EXPECT_EQ(seeds.size(), results.size());  // no correlated replications
}

TEST(SweepRunner, MetricsCoverTheStandardReadouts) {
  const auto result = run_scenario(tiny_base());
  EXPECT_TRUE(result.error.empty());
  for (const char* name :
       {"converged_gini", "final_gini", "mean_buffer_fill",
        "exchange_efficiency", "mean_spend_rate", "ledger_conserved"}) {
    EXPECT_FALSE(std::isnan(result.metric(name))) << name;
  }
  EXPECT_DOUBLE_EQ(result.metric("ledger_conserved"), 1.0);
  EXPECT_GT(result.metric("transactions"), 0.0);
  EXPECT_GT(result.metric("mean_buffer_fill"), 0.5);
  // Absent metrics answer NaN instead of throwing.
  EXPECT_TRUE(std::isnan(result.metric("no_such_metric")));
}

TEST(SweepRunner, WarmupProducesWindowedGini) {
  ScenarioSpec spec = tiny_base();
  spec.warmup_fraction = 0.5;
  const auto result = run_scenario(spec);
  EXPECT_TRUE(result.error.empty());
  EXPECT_FALSE(std::isnan(result.metric("gini_windowed_spend")));
  EXPECT_EQ(result.report.final_windowed_spend_rates.size(), 40u);
}

TEST(SweepRunner, InvalidConfigIsCapturedNotThrown) {
  ScenarioSpec spec = tiny_base();
  SweepSpec sweep;
  // peers=1 violates the protocol's initial_peers >= 2 precondition.
  sweep.axes.push_back(SweepAxis::parse("peers=1,40"));
  SweepRunner::Options options;
  options.jobs = 2;
  SweepRunner runner(spec, sweep, options);
  const auto results = runner.run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].error.empty());
  EXPECT_TRUE(results[0].metrics.empty());
  EXPECT_TRUE(results[1].error.empty());

  // The sink reports the failure without poisoning the aggregate.
  ResultSink sink;
  sink.add_all(results);
  const auto rows = sink.aggregate();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].failures, 1u);
  EXPECT_EQ(rows[0].seeds, 0u);
  EXPECT_EQ(rows[1].seeds, 1u);

  // Renderings survive an all-failed grid point: the CSV takes its metric
  // header from the surviving point and pads the failed row, the table
  // marks the failed point instead of throwing.
  const std::string agg = sink.aggregate_csv();
  EXPECT_NE(agg.find("converged_gini_mean"), std::string::npos);
  const std::string header = agg.substr(0, agg.find('\n'));
  const auto header_commas = std::count(header.begin(), header.end(), ',');
  std::istringstream lines(agg);
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), header_commas);
  }
  const std::vector<std::string> cols = {"converged_gini"};
  const auto table = sink.aggregate_table("with failure", cols);
  EXPECT_EQ(table.rows(), 2u);

  // The failed point's error message is carried into the aggregate — both
  // the struct and the JSON rendering — not just counted.
  ASSERT_EQ(rows[0].errors.size(), 1u);
  EXPECT_EQ(rows[0].errors[0], results[0].error);
  EXPECT_TRUE(rows[1].errors.empty());
  const std::string json = sink.aggregate_json();
  EXPECT_NE(json.find("\"errors\": [\""), std::string::npos);
  // The message itself appears (JSON-escaped) in the emitted document.
  EXPECT_NE(json.find("initial_peers"), std::string::npos) << json;
}

TEST(SweepRunner, KeepReportsFalseDropsTimeSeries) {
  SweepRunner::Options options;
  options.jobs = 1;
  options.keep_reports = false;
  SweepRunner runner(tiny_base(), SweepSpec{}, options);
  const auto results = runner.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].report.final_balances.empty());
  EXPECT_FALSE(results[0].metrics.empty());  // scalars survive
}

TEST(SweepRunner, ProgressCallbackSeesEveryRun) {
  std::set<std::size_t> seen;
  SweepRunner::Options options;
  options.jobs = 3;
  options.on_result = [&](const RunResult& r) { seen.insert(r.run_index); };
  SweepRunner runner(tiny_base(), tiny_sweep(), options);
  (void)runner.run();
  EXPECT_EQ(seen.size(), 8u);
}

TEST(SweepRunner, ProgressCallbackThrowReachesTheCaller) {
  // The callback runs on pool threads, where an escaping exception would
  // end the process; run() rethrows it instead, and the callback hears of
  // no later run.
  std::size_t calls = 0;
  SweepRunner::Options options;
  options.jobs = 3;
  options.on_result = [&](const RunResult&) {
    ++calls;
    throw std::runtime_error("progress sink failed");
  };
  SweepRunner runner(tiny_base(), tiny_sweep(), options);
  EXPECT_THROW((void)runner.run(), std::runtime_error);
  EXPECT_EQ(calls, 1u);
}

TEST(ResultSink, JsonMapsNanToNull) {
  // Without a rate window gini_windowed_spend is NaN; the JSON rendering
  // must degrade it to null ("nan" is not valid JSON).
  ResultSink sink;
  sink.add(run_scenario(tiny_base()));
  const std::string json = sink.aggregate_json();
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_NE(json.find("\"gini_windowed_spend\": {\"mean\": null"),
            std::string::npos);
}

TEST(ResultSink, AggregateComputesMeanAndCi) {
  ResultSink sink;
  const double values[] = {1.0, 2.0, 3.0, 4.0};
  for (std::size_t s = 0; s < 4; ++s) {
    RunResult r;
    r.run_index = s;
    r.point_index = 0;
    r.seed_index = s;
    r.params = {{"credits", 100.0}};
    r.metrics = {{"m", values[s]}};
    sink.add(r);
  }
  const auto rows = sink.aggregate();
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].metrics.size(), 1u);
  const MetricStat& stat = rows[0].metrics[0].second;
  EXPECT_EQ(stat.n, 4u);
  EXPECT_DOUBLE_EQ(stat.mean, 2.5);
  // Sample stddev of {1,2,3,4} is sqrt(5/3).
  EXPECT_NEAR(stat.stddev, std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_NEAR(stat.ci95, 1.96 * stat.stddev / 2.0, 1e-12);
}

TEST(ResultSink, AddOutOfOrderStillSortsByRunIndex) {
  ResultSink sink;
  for (const std::size_t idx : {3, 0, 2, 1}) {
    RunResult r;
    r.run_index = idx;
    r.point_index = idx / 2;
    r.metrics = {{"m", static_cast<double>(idx)}};
    sink.add(r);
  }
  const auto& runs = sink.runs();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].run_index, i);
  }
}

TEST(ResultSink, CsvAndTableRender) {
  ResultSink sink;
  sink.add_all(run_with_jobs(2));
  const std::string runs_csv = sink.runs_csv();
  EXPECT_NE(runs_csv.find("run_index,point_index,seed_index,seed,credits,"
                          "tax.rate,converged_gini"),
            std::string::npos);
  const std::string agg = sink.aggregate_csv();
  EXPECT_NE(agg.find("converged_gini_mean,converged_gini_sd,"
                     "converged_gini_ci95"),
            std::string::npos);
  // 4 grid points + header.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(agg.begin(), agg.end(), '\n')),
            5u);

  const std::vector<std::string> cols = {"converged_gini",
                                         "mean_buffer_fill"};
  const auto table = sink.aggregate_table("tiny sweep", cols);
  EXPECT_EQ(table.rows(), 4u);
  EXPECT_EQ(table.cols(), 2u + 1u + 2u);  // params + seeds + metrics
  EXPECT_THROW((void)sink.aggregate_table(
                   "bad", std::vector<std::string>{"nope"}),
               util::PreconditionError);
}

}  // namespace
}  // namespace creditflow::scenario
