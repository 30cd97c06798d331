// Tests for the sweep execution API v2: SweepPlan run keys and shard
// partitions, the run-record format, the RunStore cache (including the
// only-compute-the-new-grid-points contract, asserted by counting executor
// invocations), shard-and-merge byte-identical output, and SweepAxis::parse
// input validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <thread>

#include "scenario/scenario.hpp"

namespace creditflow::scenario {
namespace {

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

/// A fresh (pre-cleaned) per-test scratch directory.
std::filesystem::path scratch_dir(const std::string& name) {
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / "creditflow_test" / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Executor decorator that records which run indices were computed.
class CountingExecutor final : public Executor {
 public:
  std::vector<RunResult> execute(const SweepPlan& plan,
                                 std::span<const std::size_t> run_indices,
                                 const ExecuteOptions& options) override {
    executed_.insert(executed_.end(), run_indices.begin(),
                     run_indices.end());
    return inner_.execute(plan, run_indices, options);
  }

  [[nodiscard]] const std::vector<std::size_t>& executed() const {
    return executed_;
  }
  void reset() { executed_.clear(); }

 private:
  ThreadPoolExecutor inner_;
  std::vector<std::size_t> executed_;
};

// ---- SweepAxis::parse input validation -----------------------------------

TEST(SweepAxisParse, RejectsMalformedInputs) {
  // No key=value shape at all.
  EXPECT_THROW((void)SweepAxis::parse("credits"), util::PreconditionError);
  // Empty value list.
  EXPECT_THROW((void)SweepAxis::parse("credits="), util::PreconditionError);
  // Reversed range.
  EXPECT_THROW((void)SweepAxis::parse("credits=100:50:10"),
               util::PreconditionError);
  // Zero and negative step.
  EXPECT_THROW((void)SweepAxis::parse("credits=1:5:0"),
               util::PreconditionError);
  EXPECT_THROW((void)SweepAxis::parse("credits=1:5:-1"),
               util::PreconditionError);
  // Unknown parameter key.
  EXPECT_THROW((void)SweepAxis::parse("no_such_param=1,2"),
               util::PreconditionError);
  // Garbage numbers, including an empty list element.
  EXPECT_THROW((void)SweepAxis::parse("credits=abc"),
               util::PreconditionError);
  EXPECT_THROW((void)SweepAxis::parse("credits=1,,2"),
               util::PreconditionError);
  EXPECT_THROW((void)SweepAxis::parse("credits=1:xyz"),
               util::PreconditionError);
}

TEST(SweepAxisParse, AcceptsTheDocumentedForms) {
  EXPECT_EQ(SweepAxis::parse("credits=7").values,
            (std::vector<double>{7.0}));
  EXPECT_EQ(SweepAxis::parse("credits=1,2,3").values,
            (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(SweepAxis::parse("credits=10:30:10").values,
            (std::vector<double>{10.0, 20.0, 30.0}));
  // Degenerate-but-valid range: lo == hi.
  EXPECT_EQ(SweepAxis::parse("credits=5:5:1").values,
            (std::vector<double>{5.0}));
}

// ---- RunKey --------------------------------------------------------------

TEST(RunKey, HexRoundTrips) {
  const RunKey key{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  EXPECT_EQ(key.hex(), "0123456789abcdeffedcba9876543210");
  const auto back = RunKey::from_hex(key.hex());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, key);

  EXPECT_FALSE(RunKey::from_hex("too short").has_value());
  EXPECT_FALSE(
      RunKey::from_hex("0123456789abcdeffedcba987654321g").has_value());
}

TEST(RunKey, SurvivesSpecSerializationRoundTrip) {
  // The cross-process stability contract: a key derived from a spec that
  // went through serialize() → parse() → serialize() is unchanged, because
  // the text form round-trips bit-exactly.
  const SweepPlan plan(tiny_base(), tiny_sweep());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const ScenarioSpec inst = plan.spec(i);
    const ScenarioSpec reparsed = ScenarioSpec::parse(inst.serialize());
    EXPECT_EQ(RunKey::of(inst.serialize(), i),
              RunKey::of(reparsed.serialize(), i));
    EXPECT_EQ(plan.key(i), RunKey::of(reparsed.serialize(), i));
  }
}

TEST(RunKey, DistinctAcrossRunsAndSensitiveToEveryInput) {
  const SweepPlan plan(tiny_base(), tiny_sweep());
  std::set<std::string> keys;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    keys.insert(plan.key(i).hex());
  }
  EXPECT_EQ(keys.size(), plan.size());

  // Same text, different index → different key; different text, same
  // index → different key.
  const std::string text = plan.spec(0).serialize();
  EXPECT_NE(RunKey::of(text, 0), RunKey::of(text, 1));
  EXPECT_NE(RunKey::of(text, 0), RunKey::of(text + " ", 0));
}

// ---- SweepPlan -----------------------------------------------------------

TEST(SweepPlan, ShardsPartitionTheRunList) {
  const SweepPlan plan(tiny_base(), tiny_sweep());
  ASSERT_EQ(plan.size(), 8u);

  for (const std::size_t n : {1u, 2u, 3u, 8u, 11u}) {
    std::vector<std::size_t> combined;
    for (std::size_t i = 0; i < n; ++i) {
      const auto part = plan.shard(i, n);
      // Strided partition: every member of shard i is ≡ i (mod n).
      for (const std::size_t run : part) EXPECT_EQ(run % n, i);
      combined.insert(combined.end(), part.begin(), part.end());
    }
    std::sort(combined.begin(), combined.end());
    EXPECT_EQ(combined, plan.all_runs()) << n << " shards";
  }

  EXPECT_THROW((void)plan.shard(2, 2), util::PreconditionError);
}

TEST(SweepPlan, GridLargerThanSizeTIsRejected) {
  // Four axes of 2^16 values are 2^64 grid points: one more than size_t
  // counts. Built directly, so no axis-size bound gets in the way.
  SweepSpec sweep;
  SweepAxis axis;
  axis.param = "credits";
  axis.values.assign(65536, 1.0);
  sweep.axes.assign(4, axis);
  EXPECT_THROW(SweepPlan(tiny_base(), sweep), util::PreconditionError);
  // One value fewer on one axis fits.
  sweep.axes[0].values.pop_back();
  EXPECT_NO_THROW(SweepPlan(tiny_base(), sweep));
}

TEST(SweepPlan, LabelledResultCarriesPlanMetadata) {
  const SweepPlan plan(tiny_base(), tiny_sweep());
  const RunResult r = plan.labelled_result(5);
  EXPECT_EQ(r.run_index, 5u);
  EXPECT_EQ(r.point_index, 2u);
  EXPECT_EQ(r.seed_index, 1u);
  ASSERT_EQ(r.params.size(), 2u);
  EXPECT_EQ(r.params[0].first, "credits");
  EXPECT_EQ(r.params[0].second, 40.0);
  EXPECT_EQ(r.params[1].first, "tax.rate");
  EXPECT_EQ(r.params[1].second, 0.0);
  EXPECT_TRUE(r.metrics.empty());
  EXPECT_TRUE(r.error.empty());

  // The instantiated spec reflects the same grid point, with the per-run
  // derived seed.
  const ScenarioSpec spec = plan.spec(5);
  EXPECT_EQ(spec.config.protocol.initial_credits, 40u);
  EXPECT_EQ(spec.config.protocol.tax.rate, 0.0);
  EXPECT_EQ(spec.config.protocol.seed,
            util::derive_seed(tiny_base().config.protocol.seed, 5));
}

// ---- Run records ---------------------------------------------------------

TEST(RunRecord, SerializeParseRoundTrip) {
  RunResult r;
  r.run_index = 3;
  r.point_index = 1;
  r.seed_index = 1;
  r.seed = 0xdeadbeefcafe1234ULL;
  r.params = {{"credits", 20.0}, {"tax.rate", 0.2}};
  r.metrics = {{"converged_gini", 0.12345678901234567},
               {"gini_windowed_spend",
                std::numeric_limits<double>::quiet_NaN()},
               {"transactions", 155347.0}};
  r.telemetry.wall_seconds = 0.125;
  r.telemetry.purchase_phase_seconds = 0.0625;
  r.telemetry.rounds = 200;

  const RunKey key{1, 2};
  const std::string line = serialize_run_record(key, r);
  // NaN is JSON null; `nan` is not JSON.
  EXPECT_NE(line.find("\"gini_windowed_spend\":null,"), std::string::npos)
      << line;
  const RunRecord back = parse_run_record(line);
  EXPECT_EQ(back.key, key);
  EXPECT_EQ(back.result.run_index, r.run_index);
  EXPECT_EQ(back.result.point_index, r.point_index);
  EXPECT_EQ(back.result.seed_index, r.seed_index);
  EXPECT_EQ(back.result.seed, r.seed);
  EXPECT_EQ(back.result.params, r.params);
  ASSERT_EQ(back.result.metrics.size(), r.metrics.size());
  for (std::size_t k = 0; k < r.metrics.size(); ++k) {
    EXPECT_EQ(back.result.metrics[k].first, r.metrics[k].first);
    const double a = r.metrics[k].second;
    const double b = back.result.metrics[k].second;
    if (std::isnan(a)) {
      EXPECT_TRUE(std::isnan(b));
    } else {
      EXPECT_EQ(a, b);  // bit-exact through the text form
    }
  }
  EXPECT_EQ(back.result.telemetry.wall_seconds, r.telemetry.wall_seconds);
  EXPECT_EQ(back.result.telemetry.purchase_phase_seconds,
            r.telemetry.purchase_phase_seconds);
  EXPECT_EQ(back.result.telemetry.rounds, r.telemetry.rounds);
  EXPECT_TRUE(back.result.error.empty());

  // Records written before NaN became null hold `nan`; they still load.
  std::string old = line;
  old.replace(old.find(":null,"), 6, ":nan,");
  EXPECT_TRUE(
      std::isnan(parse_run_record(old).result.metric("gini_windowed_spend")));
}

TEST(RunRecord, ErrorStringsSurviveEscaping) {
  RunResult r;
  r.error = "bad \"config\": peers < 2\n\ttab and \\ backslash \x01";
  const RunRecord back = parse_run_record(serialize_run_record(RunKey{}, r));
  EXPECT_EQ(back.result.error, r.error);
}

TEST(RunRecord, ParseRejectsGarbage) {
  EXPECT_THROW((void)parse_run_record("not json"), util::PreconditionError);
  EXPECT_THROW((void)parse_run_record("{\"key\":\"zz\"}"),
               util::PreconditionError);
  EXPECT_THROW((void)parse_run_record("{\"unknown_field\":1}"),
               util::PreconditionError);
  EXPECT_THROW((void)read_run_records("/no/such/file.jsonl"),
               util::PreconditionError);

  // An index is digits only and fits 64 bits: strtoull alone would wrap
  // "-1" to 2^64 - 1 and clamp overflow to it.
  RunResult r;
  r.run_index = 7;
  r.point_index = 3;
  const std::string line = serialize_run_record(RunKey{}, r);
  const auto with = [&](const std::string& field, const std::string& value) {
    const std::string from = "\"" + field + "\":";
    std::string edited = line;
    const auto at = edited.find(from);
    EXPECT_NE(at, std::string::npos) << field;
    const auto end = edited.find(',', at);
    edited.replace(at + from.size(), end - at - from.size(), value);
    return edited;
  };
  for (const char* field : {"run_index", "point_index", "seed"}) {
    for (const char* bad : {"-1", "+1", "99999999999999999999999",
                            "18446744073709551616"}) {
      EXPECT_THROW((void)parse_run_record(with(field, bad)),
                   util::PreconditionError)
          << field << " " << bad;
    }
  }
  EXPECT_EQ(parse_run_record(with("run_index", "18446744073709551615"))
                .result.run_index,
            std::numeric_limits<std::size_t>::max());
}

TEST(RunRecord, ReadErrorsNameTheFileAndLine) {
  // A merge reads many shard files, so a malformed line's error names its
  // file and line, still as a PreconditionError (market_cli exits 64).
  const auto path = scratch_dir("records_bad_line") / "shard.jsonl";
  RunResult r;
  r.run_index = 4;
  const std::string good = serialize_run_record(RunKey{}, r);
  std::string bad = good;
  bad.replace(bad.find("\"run_index\":4"), 13, "\"run_index\":-1");
  {
    std::ofstream out(path);
    out << good << "\n\n" << bad << "\n";  // the bad record is on line 3
  }
  try {
    (void)read_run_records(path.string());
    ADD_FAILURE() << "malformed record read without an error";
  } catch (const util::PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind(path.string() + ":3: ", 0), 0u) << what;
    EXPECT_NE(what.find("expected an integer"), std::string::npos) << what;
  }
}

// ---- RunStore ------------------------------------------------------------

TEST(RunStore, PersistsAcrossInstances) {
  const auto dir = scratch_dir("store_persist");

  RunResult r;
  r.run_index = 0;
  r.seed = 42;
  r.metrics = {{"m", 1.5}};
  r.telemetry.rounds = 10;
  const RunKey key{7, 9};
  {
    RunStore store(dir.string());
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.find(key), nullptr);
    store.put(key, r);
    EXPECT_EQ(store.size(), 1u);
    store.put(key, r);  // duplicate put is a no-op
    EXPECT_EQ(store.size(), 1u);
  }
  {
    RunStore store(dir.string());  // fresh instance, same directory
    EXPECT_EQ(store.size(), 1u);
    const RunResult* found = store.find(key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->seed, 42u);
    ASSERT_EQ(found->metrics.size(), 1u);
    EXPECT_EQ(found->metrics[0].second, 1.5);
    EXPECT_EQ(found->telemetry.rounds, 10u);
  }
}

TEST(RunStore, NeverStoresErroredRuns) {
  const auto dir = scratch_dir("store_errors");
  RunStore store(dir.string());
  RunResult failed;
  failed.error = "boom";
  store.put(RunKey{1, 1}, failed);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.find(RunKey{1, 1}), nullptr);
}

// ---- RunStore robustness -------------------------------------------------

/// A minimal valid stored run for robustness tests.
RunResult small_result(std::size_t run_index, double metric) {
  RunResult r;
  r.run_index = run_index;
  r.seed = 1000 + run_index;
  r.metrics = {{"m", metric}};
  r.telemetry.rounds = 5;
  return r;
}

TEST(RunStoreRobustness, TruncatedTrailingLineIsSkippedAndRepaired) {
  const auto dir = scratch_dir("store_truncated");
  std::string path;
  {
    RunStore store(dir.string());
    store.put(RunKey{1, 1}, small_result(0, 0.5));
    store.put(RunKey{2, 2}, small_result(1, 0.75));
    path = store.path();
  }

  // Simulate a writer killed mid-append: chop the final record in half,
  // leaving no trailing newline.
  {
    std::ifstream in(path);
    std::string intact;
    std::string doomed;
    ASSERT_TRUE(std::getline(in, intact));
    ASSERT_TRUE(std::getline(in, doomed));
    std::ofstream out(path, std::ios::trunc);
    out << intact << "\n" << doomed.substr(0, doomed.size() / 2);
  }

  // Loading must not crash and must not surface the torn record.
  RunStore store(dir.string());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_NE(store.find(RunKey{1, 1}), nullptr);
  EXPECT_EQ(store.find(RunKey{2, 2}), nullptr);

  // The next append must start on a fresh line — never fuse with the torn
  // tail — so a reload sees both the survivor and the new record.
  store.put(RunKey{3, 3}, small_result(2, 0.25));
  RunStore reloaded(dir.string());
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_NE(reloaded.find(RunKey{1, 1}), nullptr);
  const RunResult* fresh = reloaded.find(RunKey{3, 3});
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->metrics.at(0).second, 0.25);
}

TEST(RunStoreRobustness, CorruptedLinesNeverCrashOrDoubleCount) {
  const auto dir = scratch_dir("store_corrupt");
  std::string path;
  {
    RunStore store(dir.string());
    store.put(RunKey{1, 1}, small_result(0, 0.5));
    path = store.path();
  }
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"key\":\"zz\"}\n";             // malformed key
    out << "complete garbage, not json\n";   // not a record at all
    // The same valid record twice (a torn concurrent write): must load
    // exactly once.
    const std::string dup =
        serialize_run_record(RunKey{4, 4}, small_result(3, 0.125));
    out << dup << "\n" << dup << "\n";
  }
  RunStore store(dir.string());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_NE(store.find(RunKey{1, 1}), nullptr);
  EXPECT_NE(store.find(RunKey{4, 4}), nullptr);
}

TEST(RunStoreRobustness, ConcurrentAppendFromTwoExecutors) {
  // Two executors sharing one store directory — each holds its own
  // RunStore over the same runs.jsonl and appends concurrently. Every
  // record must survive intact (single-write appends interleave at line
  // boundaries), keys written by both sides must not double-count, and a
  // fresh load must parse the whole file without a complaint.
  const auto dir = scratch_dir("store_concurrent");
  constexpr std::size_t kPerWriter = 200;
  constexpr std::size_t kOverlap = 50;  // keys both writers race to claim

  auto writer = [&](std::uint64_t salt, std::size_t first_key) {
    RunStore store(dir.string());
    for (std::size_t k = 0; k < kPerWriter; ++k) {
      const std::uint64_t key_id = first_key + k;
      store.put(RunKey{key_id, key_id},
                small_result(key_id, static_cast<double>(key_id)));
      (void)salt;
    }
  };
  std::thread a(writer, 1, 0);
  std::thread b(writer, 2, kPerWriter - kOverlap);
  a.join();
  b.join();

  RunStore merged(dir.string());
  const std::size_t distinct = 2 * kPerWriter - kOverlap;
  EXPECT_EQ(merged.size(), distinct);
  for (std::size_t key_id = 0; key_id < distinct; ++key_id) {
    const RunResult* found = merged.find(RunKey{key_id, key_id});
    ASSERT_NE(found, nullptr) << "key " << key_id;
    EXPECT_EQ(found->metrics.at(0).second, static_cast<double>(key_id));
  }
}

// ---- SweepSpec text round-trip -------------------------------------------

TEST(SweepSpecSerialize, RoundTripsBitExactly) {
  SweepSpec sweep;
  sweep.axes.push_back(SweepAxis::parse("credits=20,40"));
  sweep.axes.push_back(SweepAxis::parse("tax.rate=0.05:0.2:0.05"));
  sweep.axes.push_back(SweepAxis::parse("spend_cv=0.30000000000000004"));
  sweep.seeds = 7;

  const SweepSpec back = SweepSpec::parse(sweep.serialize());
  EXPECT_EQ(back.seeds, sweep.seeds);
  ASSERT_EQ(back.axes.size(), sweep.axes.size());
  for (std::size_t k = 0; k < sweep.axes.size(); ++k) {
    EXPECT_EQ(back.axes[k].param, sweep.axes[k].param);
    EXPECT_EQ(back.axes[k].values, sweep.axes[k].values);  // bit-exact
  }
  // And the canonical stability property the coordinator protocol rests
  // on: serialize ∘ parse ∘ serialize is the identity on the text form.
  EXPECT_EQ(SweepSpec::parse(sweep.serialize()).serialize(),
            sweep.serialize());
}

TEST(SweepSpecSerialize, ParseRejectsGarbage) {
  EXPECT_THROW((void)SweepSpec::parse("axis credits=1,2"),
               util::PreconditionError);  // missing seeds
  EXPECT_THROW((void)SweepSpec::parse("seeds 0"), util::PreconditionError);
  EXPECT_THROW((void)SweepSpec::parse("seeds x"), util::PreconditionError);
  // strtoull would silently wrap a negative to 2^64-1 and saturate an
  // overflowing value there too; both must reject.
  EXPECT_THROW((void)SweepSpec::parse("seeds -1"), util::PreconditionError);
  EXPECT_THROW((void)SweepSpec::parse("seeds 20000000000000000000"),
               util::PreconditionError);
  EXPECT_THROW((void)SweepSpec::parse("seeds 2\naxis nope=1"),
               util::PreconditionError);
  EXPECT_THROW((void)SweepSpec::parse("seeds 2\nbogus line"),
               util::PreconditionError);
  const SweepSpec minimal = SweepSpec::parse("seeds 3\n");
  EXPECT_EQ(minimal.seeds, 3u);
  EXPECT_TRUE(minimal.axes.empty());
}

// ---- Cache behavior through SweepRunner ----------------------------------

TEST(SweepRunnerCache, WideningAnAxisOnlyComputesTheNewRuns) {
  const auto dir = scratch_dir("cache_widen");
  CountingExecutor counter;

  auto run_with = [&](const char* tax_axis) {
    SweepSpec sweep;
    sweep.axes.push_back(SweepAxis::parse("credits=20,40"));
    sweep.axes.push_back(SweepAxis::parse(tax_axis));
    sweep.seeds = 2;
    SweepRunner::Options options;
    options.jobs = 2;
    options.keep_reports = false;
    options.cache_dir = dir.string();
    options.executor = &counter;
    SweepRunner runner(tiny_base(), sweep, options);
    return runner.run();
  };

  // Cold: every run executes.
  const auto cold = run_with("tax.rate=0,0.2");
  EXPECT_EQ(cold.size(), 8u);
  EXPECT_EQ(counter.executed().size(), 8u);

  // Warm, same grid: zero executions, identical output bytes.
  counter.reset();
  const auto warm = run_with("tax.rate=0,0.2");
  EXPECT_TRUE(counter.executed().empty());
  ResultSink cold_sink, warm_sink;
  cold_sink.add_all(cold);
  warm_sink.add_all(warm);
  EXPECT_EQ(cold_sink.runs_csv(), warm_sink.runs_csv());
  EXPECT_EQ(cold_sink.aggregate_csv(), warm_sink.aggregate_csv());
  EXPECT_EQ(cold_sink.aggregate_json(), warm_sink.aggregate_json());
  for (const auto& r : warm) {
    EXPECT_TRUE(r.telemetry.from_cache) << r.run_index;
  }

  // Widen the credits axis (the slowest-varying one, so existing runs keep
  // their indices and hence their derived seeds): only the 4 runs of the
  // new credits=60 points execute.
  counter.reset();
  SweepSpec wide;
  wide.axes.push_back(SweepAxis::parse("credits=20,40,60"));
  wide.axes.push_back(SweepAxis::parse("tax.rate=0,0.2"));
  wide.seeds = 2;
  SweepRunner::Options options;
  options.jobs = 2;
  options.keep_reports = false;
  options.cache_dir = dir.string();
  options.executor = &counter;
  SweepRunner runner(tiny_base(), wide, options);
  const auto grown = runner.run();
  ASSERT_EQ(grown.size(), 12u);
  EXPECT_EQ(counter.executed().size(), 4u);
  for (const std::size_t executed : counter.executed()) {
    EXPECT_GE(executed, 8u);  // exactly the new credits=60 grid points
  }
  EXPECT_EQ(runner.cache_hits(), 8u);
  EXPECT_EQ(runner.executed(), 4u);

  // The recalled prefix is bit-identical to the cold computation.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(grown[i].seed, cold[i].seed);
    ASSERT_EQ(grown[i].metrics.size(), cold[i].metrics.size());
    for (std::size_t k = 0; k < cold[i].metrics.size(); ++k) {
      const double a = cold[i].metrics[k].second;
      const double b = grown[i].metrics[k].second;
      if (std::isnan(a)) {
        EXPECT_TRUE(std::isnan(b));
      } else {
        EXPECT_EQ(a, b);
      }
    }
  }
}

TEST(SweepRunnerCache, EachFreshRunIsStoredBeforeTheCallerHearsOfIt) {
  // A sweep killed midway keeps every run it finished: when the progress
  // callback sees a fresh run, a second store on the directory finds it.
  const auto dir = scratch_dir("cache_per_run");
  const SweepPlan plan(tiny_base(), tiny_sweep());
  SweepRunner::Options options;
  options.jobs = 2;
  options.keep_reports = false;
  options.cache_dir = dir.string();
  std::size_t seen = 0;
  options.on_result = [&](const RunResult& r) {
    ++seen;
    EXPECT_FALSE(r.telemetry.from_cache);
    const RunStore reader(dir.string());
    EXPECT_NE(reader.find(plan.key(r.run_index)), nullptr) << r.run_index;
  };
  (void)SweepRunner(tiny_base(), tiny_sweep(), options).run();
  EXPECT_EQ(seen, plan.size());
}

TEST(SweepRunnerCache, CacheRequiresMetricsOnlyRuns) {
  SweepRunner::Options options;
  options.cache_dir = scratch_dir("cache_guard").string();
  options.keep_reports = true;  // incompatible: the store holds no reports
  EXPECT_THROW(SweepRunner(tiny_base(), tiny_sweep(), options),
               util::PreconditionError);
}

// ---- Shard-and-merge determinism ----------------------------------------

TEST(SweepRunnerShard, TwoShardsMergeByteIdenticalToOneShot) {
  // The reference single-process run.
  SweepRunner::Options reference_options;
  reference_options.jobs = 1;
  reference_options.keep_reports = false;
  SweepRunner reference(tiny_base(), tiny_sweep(), reference_options);
  ResultSink reference_sink;
  reference_sink.add_all(reference.run());

  // Two shards at different (and deliberately unequal) jobs counts, merged
  // through the run-record text format — the full distributed path.
  ResultSink merged_sink;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    SweepRunner::Options options;
    options.jobs = shard == 0 ? 3 : 1;
    options.keep_reports = false;
    options.shard_index = shard;
    options.shard_count = 2;
    SweepRunner runner(tiny_base(), tiny_sweep(), options);
    const auto partial = runner.run();
    EXPECT_EQ(partial.size(), 4u);
    const SweepPlan plan(tiny_base(), tiny_sweep());
    for (const auto& r : partial) {
      // Round-trip through the interchange format, as market_cli --merge
      // does.
      const auto record = parse_run_record(
          serialize_run_record(plan.key(r.run_index), r));
      merged_sink.add(record.result);
    }
  }

  EXPECT_EQ(merged_sink.runs_csv(), reference_sink.runs_csv());
  EXPECT_EQ(merged_sink.aggregate_csv(), reference_sink.aggregate_csv());
  EXPECT_EQ(merged_sink.aggregate_json(), reference_sink.aggregate_json());
}

// ---- Telemetry -----------------------------------------------------------

TEST(RunTelemetry, PopulatedOnExecutionAndSurfacedInCsv) {
  const auto result = run_scenario(tiny_base());
  EXPECT_TRUE(result.error.empty());
  EXPECT_GT(result.telemetry.wall_seconds, 0.0);
  EXPECT_GE(result.telemetry.purchase_phase_seconds, 0.0);
  EXPECT_LE(result.telemetry.purchase_phase_seconds,
            result.telemetry.wall_seconds);
  EXPECT_GT(result.telemetry.rounds, 0u);
  EXPECT_FALSE(result.telemetry.from_cache);

  ResultSink sink;
  sink.add(result);
  // rounds is always emitted; wall-clock columns only on request (they are
  // machine-dependent and would break byte-reproducibility).
  const std::string plain = sink.runs_csv();
  EXPECT_NE(plain.find(",error,rounds"), std::string::npos);
  EXPECT_EQ(plain.find("wall_seconds"), std::string::npos);
  sink.set_timing_columns(true);
  const std::string timed = sink.runs_csv();
  EXPECT_NE(timed.find(",error,rounds,wall_seconds,purchase_phase_seconds"),
            std::string::npos);
}

TEST(RunTelemetry, CarriesTheProtocolsDropCounters) {
  // Every slot is taken from the start and nobody leaves within the
  // horizon, so each arrival is refused for lack of a slot.
  ScenarioSpec spec = tiny_base();
  spec.config.protocol.churn.enabled = true;
  spec.config.protocol.churn.arrival_rate = 2.0;
  spec.config.protocol.churn.mean_lifespan = 1e6;
  const RunResult result = run_scenario(spec);
  ASSERT_TRUE(result.error.empty()) << result.error;

  core::CreditMarket market(spec.materialize());
  (void)market.run();
  const p2p::StreamingProtocol& proto = market.protocol();
  EXPECT_GT(result.telemetry.churn_arrivals_dropped, 0u);
  EXPECT_EQ(result.telemetry.churn_arrivals_dropped,
            proto.metrics().counter("churn.arrivals_dropped"));
  EXPECT_EQ(result.telemetry.overlay_edges_dropped,
            proto.overlay().edges_dropped());

  const RunRecord back =
      parse_run_record(serialize_run_record(RunKey{}, result));
  EXPECT_EQ(back.result.telemetry.churn_arrivals_dropped,
            result.telemetry.churn_arrivals_dropped);
  EXPECT_EQ(back.result.telemetry.overlay_edges_dropped,
            result.telemetry.overlay_edges_dropped);
}

}  // namespace
}  // namespace creditflow::scenario
