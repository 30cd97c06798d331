// ResultSink tests: aggregation and rendering are independent of arrival
// order (shard-merge interleaving), failed runs and NaN metrics render
// pinned bytes, the aggregate JSON escapes every name it quotes, and a
// duplicate run or an over-full grid point is rejected.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "util/rng.hpp"

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
  sweep.seeds = 3;
  return sweep;
}

std::vector<RunResult> tiny_results() {
  SweepRunner::Options options;
  options.jobs = 2;
  SweepRunner runner(tiny_base(), tiny_sweep(), options);
  return runner.run();
}

void expect_rows_bitwise_equal(const std::vector<AggregateRow>& a,
                               const std::vector<AggregateRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].point_index, b[i].point_index);
    EXPECT_EQ(a[i].params, b[i].params);
    EXPECT_EQ(a[i].seeds, b[i].seeds);
    EXPECT_EQ(a[i].failures, b[i].failures);
    EXPECT_EQ(a[i].errors, b[i].errors);
    ASSERT_EQ(a[i].metrics.size(), b[i].metrics.size());
    for (std::size_t k = 0; k < a[i].metrics.size(); ++k) {
      SCOPED_TRACE(a[i].metrics[k].first);
      EXPECT_EQ(a[i].metrics[k].first, b[i].metrics[k].first);
      const MetricStat& sa = a[i].metrics[k].second;
      const MetricStat& sb = b[i].metrics[k].second;
      EXPECT_EQ(sa.n, sb.n);
      // Bit-for-bit: NaN compares equal to NaN, every finite value must
      // match exactly, not approximately.
      const auto same_bits = [](double x, double y) {
        return (std::isnan(x) && std::isnan(y)) || x == y;
      };
      EXPECT_TRUE(same_bits(sa.mean, sb.mean)) << sa.mean << " vs " << sb.mean;
      EXPECT_TRUE(same_bits(sa.stddev, sb.stddev));
      EXPECT_TRUE(same_bits(sa.ci95, sb.ci95));
    }
  }
}

TEST(ResultSinkStreaming, InterleavedShardMergeOrderFoldsIdentically) {
  // Feed one sink in run order and one in the order a 3-shard merge
  // delivers (strided, shard by shard) — the sink must erase the arrival
  // order entirely, down to the rendered bytes.
  const auto results = tiny_results();
  ResultSink in_order;
  in_order.add_all(results);

  ResultSink interleaved;
  const std::size_t shards = 3;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    for (std::size_t i = shard; i < results.size(); i += shards) {
      interleaved.add(results[i]);
    }
  }

  expect_rows_bitwise_equal(interleaved.aggregate(), in_order.aggregate());
  EXPECT_EQ(interleaved.aggregate_csv(), in_order.aggregate_csv());
  EXPECT_EQ(interleaved.aggregate_json(), in_order.aggregate_json());
  EXPECT_EQ(interleaved.runs_csv(), in_order.runs_csv());
}

TEST(ResultSinkStreaming, FailedRunsFoldLikeBatch) {
  // Synthetic mix of failures and successes across two points, added in
  // reverse order: failed runs are counted and explained, and only the
  // successful runs enter the statistics.
  std::vector<RunResult> results;
  for (std::size_t i = 0; i < 6; ++i) {
    RunResult r;
    r.run_index = i;
    r.point_index = i / 3;
    r.seed_index = i % 3;
    r.params = {{"x", static_cast<double>(i / 3)}};
    if (i % 3 == 1) {
      r.error = "boom " + std::to_string(i);
    } else {
      r.metrics = {{"m", static_cast<double>(i) * 1.5}};
    }
    results.push_back(std::move(r));
  }
  ResultSink sink;
  for (auto it = results.rbegin(); it != results.rend(); ++it) {
    sink.add(*it);
  }
  const auto rows = sink.aggregate();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].seeds, 2u);
  EXPECT_EQ(rows[0].failures, 1u);
  ASSERT_EQ(rows[0].errors.size(), 1u);
  EXPECT_EQ(rows[0].errors[0], "boom 1");
  EXPECT_EQ(rows[1].errors[0], "boom 4");
  // Point 0 averages runs 0 and 2 (m = 0, 3), point 1 runs 3 and 5
  // (m = 4.5, 7.5): both have mean ± 1.5, so sd = sqrt(4.5).
  for (const AggregateRow& row : rows) {
    ASSERT_EQ(row.metrics.size(), 1u);
    const MetricStat& m = row.metrics[0].second;
    EXPECT_EQ(m.n, 2u);
    EXPECT_DOUBLE_EQ(m.stddev, std::sqrt(4.5));
    EXPECT_DOUBLE_EQ(m.ci95, 1.96 * std::sqrt(4.5) / std::sqrt(2.0));
  }
  EXPECT_DOUBLE_EQ(rows[0].metrics[0].second.mean, 1.5);
  EXPECT_DOUBLE_EQ(rows[1].metrics[0].second.mean, 6.0);
}

// Byte pin on the renderers' failure paths, which no golden row reaches:
// point 0 has one failed run (its error needs CSV quoting and JSON
// escaping) and a metric that is NaN in every run; every run of point 1
// failed, so the aggregate CSV pads its metric columns and the runs CSV
// pads every row of that point. Added in reverse run order.
TEST(ResultSinkStreaming, FailuresAndNanRenderPinnedBytes) {
  std::vector<RunResult> results;
  for (std::size_t i = 0; i < 6; ++i) {
    RunResult r;
    r.run_index = i;
    r.point_index = i / 3;
    r.seed_index = i % 3;
    r.seed = 1000 + i;
    r.params = {{"x", 0.25 + static_cast<double>(i / 3)}};
    r.telemetry.rounds = 10 + i;
    if (i == 1) {
      r.error = "boom, \"quoted\"\nsecond line";
    } else if (i >= 3) {
      r.error = "point failed " + std::to_string(i);
    } else {
      r.metrics = {{"m", static_cast<double>(i) * 1.5 + 0.125},
                   {"rate", std::nan("")}};
    }
    results.push_back(std::move(r));
  }
  ResultSink sink;
  for (auto it = results.rbegin(); it != results.rend(); ++it) {
    sink.add(*it);
  }
  const std::uint64_t csv = util::fnv1a64(sink.aggregate_csv());
  const std::uint64_t json = util::fnv1a64(sink.aggregate_json());
  const std::uint64_t runs = util::fnv1a64(sink.runs_csv());
  EXPECT_TRUE(csv == 0x1422c2a2c6cd4486ULL && json == 0x0a9feb96c710948aULL &&
              runs == 0xa7888f23836176fbULL)
      << std::hex << "0x" << csv << "ULL, 0x" << json << "ULL, 0x" << runs
      << "ULL\n"
      << sink.aggregate_csv() << sink.aggregate_json() << sink.runs_csv();
}

// A merged run record may name a parameter or a metric with any string:
// the aggregate JSON escapes those names as it escapes error strings.
TEST(ResultSinkStreaming, JsonEscapesParamAndMetricNames) {
  RunResult r;
  r.run_index = 0;
  r.point_index = 0;
  r.params = {{"tax\"rate", 0.5}};
  r.metrics = {{"back\\slash\n", 1.0}};
  ResultSink sink;
  sink.add(r);
  const std::string json = sink.aggregate_json();
  EXPECT_NE(json.find(R"({"tax\"rate": 0.5})"), std::string::npos) << json;
  EXPECT_NE(json.find(R"({"back\\slash\n": {"mean": )"), std::string::npos)
      << json;
}

TEST(ResultSinkStreaming, OverfullPointWithDeclaredReplicationsThrows) {
  ResultSink sink;
  sink.set_expected_replications(1);
  RunResult r;
  r.run_index = 0;
  r.point_index = 0;
  r.metrics = {{"m", 1.0}};
  sink.add(r);
  RunResult extra = r;
  extra.run_index = 1;
  EXPECT_THROW(sink.add(extra), util::PreconditionError);
}

TEST(ResultSinkStreaming, HugeIndicesNeedNoTableOfThatSize) {
  // A run record may carry any 64-bit index; the sink keys its duplicate
  // and replication checks by index instead of sizing a table by it.
  constexpr std::size_t kHuge = 100000000000000;  // 10^14
  ResultSink sink;
  sink.set_expected_replications(1);
  RunResult r;
  r.run_index = kHuge;
  r.point_index = kHuge;
  r.metrics = {{"m", 1.0}};
  sink.add(r);
  RunResult low = r;
  low.run_index = 0;
  low.point_index = 0;
  sink.add(low);
  EXPECT_THROW(sink.add(r), util::PreconditionError);  // duplicate run
  RunResult extra = r;
  extra.run_index = kHuge + 1;
  EXPECT_THROW(sink.add(extra), util::PreconditionError);  // point is full
  const auto rows = sink.aggregate();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].point_index, 0u);
  EXPECT_EQ(rows[1].point_index, kHuge);
  EXPECT_NE(sink.runs_csv().find(std::to_string(kHuge)), std::string::npos);
}

TEST(ResultSinkStreaming, DuplicateRunIndexIsRejected) {
  // A record file merged twice must fail, not double-count its runs.
  ResultSink sink;
  RunResult r;
  r.run_index = 0;
  r.point_index = 0;
  r.metrics = {{"m", 1.0}};
  sink.add(r);
  EXPECT_THROW(sink.add(r), util::PreconditionError);
  EXPECT_EQ(sink.size(), 1u);
}

}  // namespace
}  // namespace creditflow::scenario
