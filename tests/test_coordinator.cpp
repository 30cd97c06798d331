// Tests for the work-stealing sweep coordinator and its socket workers:
// the determinism-under-chaos contract. An in-process coordinator, the
// executor of a SweepRunner, serves a plan to worker threads over loopback
// TCP, and in every scenario — clean multi-worker execution, a warm
// RunStore, a connection dropped holding a lease, duplicate and corrupt
// deliveries, a coordinator crash and restart — the merged run-record set
// and the aggregate CSV/JSON must be byte-identical to a single-process
// ThreadPoolExecutor run of the same spec, with exactly one record per
// RunKey. The lease policy itself (dead
// and stalled workers, the resume grace, batching) is tested on virtual
// time in test_lease_scheduler.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "scenario/scenario.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"

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
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   "creditflow_coordinator" / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Every rendering whose bytes the distributed path must reproduce.
struct Rendered {
  std::string records;  ///< the merged run-record set, in run_index order
  std::string runs_csv;
  std::string aggregate_csv;
  std::string aggregate_json;
};

Rendered render(const ScenarioSpec& base, const SweepSpec& sweep,
                const std::vector<RunResult>& results) {
  const SweepPlan plan(base, sweep);
  Rendered out;
  for (const auto& r : results) {
    // Wall-clock/RSS telemetry is honestly machine- and run-dependent (two
    // executions of the same run never time identically); every other
    // record byte — key, metadata, params, metrics, rounds, error — must
    // reproduce exactly, so zero the timing fields and compare the rest.
    RunResult deterministic = r;
    deterministic.telemetry.wall_seconds = 0.0;
    deterministic.telemetry.purchase_phase_seconds = 0.0;
    deterministic.telemetry.seed_phase_seconds = 0.0;
    deterministic.telemetry.tax_phase_seconds = 0.0;
    deterministic.telemetry.peak_rss_bytes = 0;
    deterministic.telemetry.from_cache = false;
    out.records += serialize_run_record(plan.key(r.run_index), deterministic);
    out.records += '\n';
  }
  ResultSink sink;
  sink.add_all(results);
  out.runs_csv = sink.runs_csv();
  out.aggregate_csv = sink.aggregate_csv();
  out.aggregate_json = sink.aggregate_json();
  return out;
}

void expect_identical(const Rendered& a, const Rendered& b) {
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.runs_csv, b.runs_csv);
  EXPECT_EQ(a.aggregate_csv, b.aggregate_csv);
  EXPECT_EQ(a.aggregate_json, b.aggregate_json);
}

/// The single-process reference: the in-process thread-pool executor.
std::vector<RunResult> reference_results(const ScenarioSpec& base,
                                         const SweepSpec& sweep) {
  SweepRunner::Options options;
  options.jobs = 1;
  options.keep_reports = false;
  SweepRunner runner(base, sweep, options);
  return runner.run();
}

/// Runs a sweep through a SweepRunner whose executor is `coordinator`, on
/// its own thread, capturing the results (or the error) for the test body
/// to join on. Cache, series and progress settings go in `options`, as for
/// a local sweep.
class ServeThread {
 public:
  explicit ServeThread(Coordinator& coordinator,
                       const ScenarioSpec& base = tiny_base(),
                       const SweepSpec& sweep = tiny_sweep(),
                       SweepRunner::Options options = {})
      : thread_([this, &coordinator, base, sweep, options]() mutable {
          options.keep_reports = false;
          options.executor = &coordinator;
          try {
            results_ = SweepRunner(base, sweep, std::move(options)).run();
          } catch (const std::exception& e) {
            error_ = e.what();
          }
        }) {}

  std::vector<RunResult> join() {
    thread_.join();
    EXPECT_EQ(error_, "");
    return std::move(results_);
  }

  /// Join a sweep expected to throw (crash injection); returns the error.
  std::string join_error() {
    thread_.join();
    return error_;
  }

 private:
  std::vector<RunResult> results_;
  std::string error_;
  std::thread thread_;
};

/// A hand-driven protocol client for fault injection: it speaks just
/// enough of the wire format to take leases, deliver (or withhold, or
/// duplicate, or corrupt) results, and vanish abruptly.
class RawClient {
 public:
  explicit RawClient(std::uint16_t port)
      : socket_(util::Socket::connect("127.0.0.1", port, 5.0)),
        reader_(socket_) {}

  /// HELLO → PLAN; returns the plan the coordinator transmitted. The v2
  /// header carries the series cadence and this session's resume token.
  SweepPlan handshake() {
    EXPECT_TRUE(socket_.send_all(std::string("HELLO ") +
                                 kSweepProtocolVersion + "\n"));
    const std::string header = read_line();
    header_ = header;
    long long lease_ms = 0;
    std::size_t spec_len = 0;
    std::size_t sweep_len = 0;
    char token[64] = {0};
    EXPECT_EQ(std::sscanf(header.c_str(), "PLAN %lld %zu %zu %zu %63s",
                          &lease_ms, &spec_len, &sweep_len, &series_every_,
                          token),
              5)
        << header;
    token_ = token;
    EXPECT_EQ(token_.size(), 16u) << header;
    std::string spec_text;
    std::string sweep_text;
    EXPECT_EQ(reader_.read_exact(spec_text, spec_len, 5.0),
              util::IoStatus::kOk);
    EXPECT_EQ(reader_.read_exact(sweep_text, sweep_len, 5.0),
              util::IoStatus::kOk);
    payload_ = spec_text + sweep_text;
    return SweepPlan(ScenarioSpec::parse(spec_text),
                     SweepSpec::parse(sweep_text));
  }

  /// The raw PLAN header line and the payload that followed it.
  [[nodiscard]] const std::string& header() const { return header_; }
  [[nodiscard]] const std::string& payload() const { return payload_; }
  /// The session token the coordinator issued in PLAN.
  [[nodiscard]] const std::string& token() const { return token_; }
  /// The series cadence announced in PLAN.
  [[nodiscard]] std::size_t series_every() const { return series_every_; }

  /// RESUME a previous session's token; returns the reclaimed run indices.
  std::vector<std::size_t> resume(const std::string& token) {
    const std::string reply = request("RESUME " + token);
    EXPECT_EQ(reply.rfind("RESUMED ", 0), 0u) << reply;
    std::vector<std::size_t> indices;
    std::istringstream in(reply.substr(8));
    std::size_t count = 0;
    in >> count;
    std::size_t idx = 0;
    while (in >> idx) indices.push_back(idx);
    EXPECT_EQ(indices.size(), count) << reply;
    return indices;
  }

  /// Send one line, read one reply line.
  std::string request(const std::string& line) {
    EXPECT_TRUE(socket_.send_all(line + "\n"));
    return read_line();
  }

  /// NEXT until a lease batch is granted (skipping WAIT); returns all the
  /// granted run indices.
  std::vector<std::size_t> lease_batch() {
    for (int attempt = 0; attempt < 100; ++attempt) {
      const std::string reply = request("NEXT");
      if (reply.rfind("RUN ", 0) == 0) {
        std::vector<std::size_t> indices;
        std::istringstream in(reply.substr(4));
        std::size_t idx = 0;
        while (in >> idx) indices.push_back(idx);
        EXPECT_FALSE(indices.empty()) << reply;
        return indices;
      }
      EXPECT_EQ(reply, "WAIT");
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "no lease granted after 100 attempts";
    return {};
  }

  /// lease_batch(), expecting (and returning) a single run index.
  std::size_t lease() {
    const auto batch = lease_batch();
    EXPECT_EQ(batch.size(), 1u);
    return batch.empty() ? 0 : batch.front();
  }

  /// Send a pre-serialized run record (plus an optional series blob)
  /// without waiting for the reply.
  void send_result(const std::string& record,
                   const std::string& series = "") {
    EXPECT_TRUE(socket_.send_all("RESULT " + std::to_string(record.size()) +
                                 " " + std::to_string(series.size()) + "\n" +
                                 record + series));
  }

  /// send_result(), then return the coordinator's reply (OK / DUP / ERR).
  std::string deliver(const std::string& record,
                      const std::string& series = "") {
    send_result(record, series);
    return read_line();
  }

  /// Abrupt disconnect — the "kill -9 mid-run" a dead worker looks like.
  void vanish() { socket_.close(); }

  /// True once the coordinator has closed its end (EOF or reset) with no
  /// further reply line.
  bool closed_by_peer() {
    std::string line;
    const util::IoStatus status = reader_.read_line(line, 5.0);
    return status == util::IoStatus::kEof || status == util::IoStatus::kError;
  }

 private:
  std::string read_line() {
    std::string line;
    EXPECT_EQ(reader_.read_line(line, 5.0), util::IoStatus::kOk);
    return line;
  }

  util::Socket socket_;
  util::SocketReader reader_;
  std::string header_;
  std::string payload_;
  std::string token_;
  std::size_t series_every_ = 0;
};

/// One HTTP request on a fresh status-endpoint connection; the coordinator
/// closes after the body, so this returns the whole response.
std::string http_get(std::uint16_t port, const std::string& request_line) {
  util::Socket s = util::Socket::connect("127.0.0.1", port, 5.0);
  EXPECT_TRUE(s.send_all(request_line + "\r\n\r\n"));
  std::string response;
  while (s.recv_some(response, 5.0) == util::IoStatus::kOk) {
  }
  return response;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Replace every value that follows `prefix` in `text` (up to the next
/// `,`, `}`, `"` or newline) with `#` — masks the clock- and
/// descriptor-dependent fields of a transcript.
std::string mask_after(std::string text, const std::string& prefix) {
  for (auto at = text.find(prefix); at != std::string::npos;
       at = text.find(prefix, at + 1)) {
    const auto begin = at + prefix.size();
    const auto end = std::min(text.find_first_of(",}\"\n", begin),
                              text.size());
    text.replace(begin, end - begin, 1, '#');
  }
  return text;
}

/// Compute the honest run record a correct worker would deliver for
/// `run_index` of `plan`.
std::string honest_record(const SweepPlan& plan, std::size_t run_index) {
  ThreadPoolExecutor executor;
  ExecuteOptions options;
  options.jobs = 1;
  options.keep_reports = false;
  const std::size_t indices[1] = {run_index};
  const auto results = executor.execute(plan, indices, options);
  return serialize_run_record(plan.key(run_index), results.at(0));
}

// ---- Clean distributed execution -----------------------------------------

TEST(Coordinator, MultiWorkerRunIsByteIdenticalToThreadPool) {
  const auto reference = reference_results(tiny_base(), tiny_sweep());

  Coordinator::Options options;
  options.lease_timeout_seconds = 30.0;
  Coordinator coordinator(options);
  EXPECT_EQ(coordinator.status().plan_runs, 0u);  // no plan before execute()
  ServeThread serve(coordinator);

  // An asymmetric fleet: one two-session worker and one single-session
  // worker, all stealing from the same queue.
  WorkerOptions two_sessions;
  two_sessions.sessions = 2;
  WorkerOptions one_session;
  one_session.sessions = 1;
  WorkerReport report_a;
  WorkerReport report_b;
  std::thread worker_a([&] {
    report_a = run_worker("127.0.0.1", coordinator.port(), two_sessions);
  });
  std::thread worker_b([&] {
    report_b = run_worker("127.0.0.1", coordinator.port(), one_session);
  });
  worker_a.join();
  worker_b.join();
  const auto results = serve.join();

  EXPECT_TRUE(report_a.completed) << report_a.error;
  EXPECT_TRUE(report_b.completed) << report_b.error;
  EXPECT_EQ(report_a.runs_executed + report_b.runs_executed, 8u);
  const SweepStatus status = coordinator.status();
  EXPECT_EQ(status.executed, 8u);
  EXPECT_EQ(status.cache_hits, 0u);
  EXPECT_EQ(status.duplicates, 0u);
  EXPECT_EQ(status.workers_seen, 3u);  // three sessions connected

  ASSERT_EQ(results.size(), reference.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].run_index, i);
  }
  expect_identical(render(tiny_base(), tiny_sweep(), results),
                   render(tiny_base(), tiny_sweep(), reference));

  // A coordinator serves one sweep.
  EXPECT_THROW((void)coordinator.execute(SweepPlan(tiny_base(), tiny_sweep()),
                                         {}, ExecuteOptions{}),
               util::PreconditionError);
}

TEST(Coordinator, Fig11ChurnSweepMatchesThePinnedGoldenHashes) {
  // The strongest cross-check available: the distributed path must land on
  // the *same* pinned golden constants as test_golden_outputs.cpp does for
  // the single-process engine — one coordinator, two workers, churn-heavy
  // open-market runs, and not a byte of drift end to end.
  const ScenarioSpec* preset =
      ScenarioRegistry::builtin().find("fig11_churn");
  ASSERT_NE(preset, nullptr);
  ScenarioSpec spec = *preset;
  ASSERT_EQ(spec.set_checked("horizon", 400.0), std::nullopt);
  ASSERT_EQ(spec.set_checked("snapshot_interval", 100.0), std::nullopt);
  SweepSpec sweep;
  sweep.axes.push_back(SweepAxis::parse("churn.arrival_rate=1,2"));
  sweep.axes.push_back(SweepAxis::parse("churn.mean_lifespan=100,200"));
  sweep.seeds = 2;

  Coordinator coordinator(Coordinator::Options{});
  ServeThread serve(coordinator, spec, sweep);
  WorkerOptions worker_options;
  worker_options.sessions = 1;
  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&] {
      const auto report =
          run_worker("127.0.0.1", coordinator.port(), worker_options);
      EXPECT_TRUE(report.completed) << report.error;
    });
  }
  for (auto& t : workers) t.join();
  const auto results = serve.join();

  ResultSink sink;
  sink.add_all(results);
  EXPECT_EQ(util::fnv1a64(sink.aggregate_csv()), 0xbd9622db89f1920bULL);
  EXPECT_EQ(util::fnv1a64(sink.aggregate_json()), 0x1d7620dbf7cda782ULL);
  EXPECT_EQ(util::fnv1a64(sink.runs_csv()), 0xc27d93ece3617262ULL);
}

// ---- Wire transcript -----------------------------------------------------

TEST(Coordinator, WireTranscriptIsPinned) {
  // Every reply line of a scripted session and the shape of /status and
  // /metrics, byte for byte (session tokens, clock readings and
  // descriptors masked). One-run leases keep the grants independent of
  // timing; a zero drain lets execute() return the moment the last result
  // lands.
  Coordinator::Options options;
  options.lease_batch_max = 1;
  options.status_port = 0;
  options.drain_seconds = 0.0;
  Coordinator coordinator(options);
  ServeThread serve(coordinator);

  const std::string spec_text = tiny_base().serialize();
  const std::string sweep_text = tiny_sweep().serialize();
  const auto expect_plan_header = [&](const RawClient& client) {
    EXPECT_EQ(client.token().find_first_not_of("0123456789abcdef"),
              std::string::npos)
        << client.token();
    EXPECT_EQ(client.header(), "PLAN 30000 " +
                                   std::to_string(spec_text.size()) + " " +
                                   std::to_string(sweep_text.size()) + " 0 " +
                                   client.token());
    EXPECT_EQ(client.payload(), spec_text + sweep_text);
  };

  RawClient a(coordinator.port());
  const SweepPlan plan = a.handshake();
  expect_plan_header(a);
  EXPECT_EQ(a.request("NEXT"), "RUN 0");

  // The live snapshot while `a` holds run 0.
  const std::string status = http_get(coordinator.status_port(),
                                      "GET /status HTTP/1.0");
  const auto status_split = status.find("\r\n\r\n");
  ASSERT_NE(status_split, std::string::npos) << status;
  const std::string status_body = status.substr(status_split + 4);
  EXPECT_EQ(status.substr(0, status_split),
            "HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n"
            "Content-Length: " +
                std::to_string(status_body.size()) +
                "\r\nConnection: close");
  EXPECT_EQ(
      mask_after(mask_after(mask_after(status_body, "\"elapsed_seconds\":"),
                            "\"fd\":"),
                 "\"last_heartbeat_age_seconds\":"),
      "{\"plan_runs\":8,\"completed\":0,\"pending\":7,\"leased\":1,"
      "\"orphaned_leases\":0,\"executed\":0,\"cache_hits\":0,"
      "\"requeued\":0,\"duplicates\":0,\"workers_seen\":1,"
      "\"leases_resumed\":0,\"done\":false,"
      "\"elapsed_seconds\":#,\"eta_seconds\":null,"
      "\"lease_wall_ms\":{\"count\":0,\"mean\":0,\"p50\":0,\"p90\":0,"
      "\"max\":0},\"workers\":[{\"fd\":#,\"completed\":0,"
      "\"active_leases\":1,\"throughput_runs_per_s\":0,"
      "\"last_heartbeat_age_seconds\":#}]}");

  const std::string metrics = http_get(coordinator.status_port(),
                                       "GET /metrics HTTP/1.0");
  const auto metrics_split = metrics.find("\r\n\r\n");
  ASSERT_NE(metrics_split, std::string::npos) << metrics;
  const std::string metrics_body = metrics.substr(metrics_split + 4);
  EXPECT_EQ(metrics.substr(0, metrics_split),
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n"
            "Content-Length: " +
                std::to_string(metrics_body.size()) +
                "\r\nConnection: close");
  EXPECT_EQ(mask_after(mask_after(metrics_body,
                                  "\ncreditflow_sweep_elapsed_seconds "),
                       "fd=\""),
            R"(# HELP creditflow_sweep_plan_runs Total runs in the sweep plan.
# TYPE creditflow_sweep_plan_runs gauge
creditflow_sweep_plan_runs 8
# HELP creditflow_sweep_completed_runs Runs completed (executed or cache hits).
# TYPE creditflow_sweep_completed_runs gauge
creditflow_sweep_completed_runs 0
# HELP creditflow_sweep_pending_runs Runs queued and not yet leased.
# TYPE creditflow_sweep_pending_runs gauge
creditflow_sweep_pending_runs 7
# HELP creditflow_sweep_leased_runs Runs currently leased to workers.
# TYPE creditflow_sweep_leased_runs gauge
creditflow_sweep_leased_runs 1
# HELP creditflow_sweep_executed_runs Runs freshly executed by workers.
# TYPE creditflow_sweep_executed_runs gauge
creditflow_sweep_executed_runs 0
# HELP creditflow_sweep_cache_hits Runs answered from the run store.
# TYPE creditflow_sweep_cache_hits gauge
creditflow_sweep_cache_hits 0
# HELP creditflow_sweep_requeued_runs Leases revoked after worker silence.
# TYPE creditflow_sweep_requeued_runs gauge
creditflow_sweep_requeued_runs 0
# HELP creditflow_sweep_duplicate_results Results delivered for already-done runs.
# TYPE creditflow_sweep_duplicate_results gauge
creditflow_sweep_duplicate_results 0
# HELP creditflow_sweep_workers_seen Distinct workers that ever joined.
# TYPE creditflow_sweep_workers_seen gauge
creditflow_sweep_workers_seen 1
# HELP creditflow_sweep_leases_resumed Leases reclaimed via the RESUME handshake.
# TYPE creditflow_sweep_leases_resumed gauge
creditflow_sweep_leases_resumed 0
# HELP creditflow_sweep_done 1 when every planned run is complete.
# TYPE creditflow_sweep_done gauge
creditflow_sweep_done 0
# HELP creditflow_sweep_elapsed_seconds Wall time since the coordinator started.
# TYPE creditflow_sweep_elapsed_seconds gauge
creditflow_sweep_elapsed_seconds #
# HELP creditflow_sweep_lease_wall_ms_p50 Median lease wall time in milliseconds.
# TYPE creditflow_sweep_lease_wall_ms_p50 gauge
creditflow_sweep_lease_wall_ms_p50 0
# HELP creditflow_sweep_lease_wall_ms_p90 90th-percentile lease wall time (ms).
# TYPE creditflow_sweep_lease_wall_ms_p90 gauge
creditflow_sweep_lease_wall_ms_p90 0
# HELP creditflow_sweep_worker_completed_runs Runs completed per connected worker.
# TYPE creditflow_sweep_worker_completed_runs gauge
creditflow_sweep_worker_completed_runs{fd="#"} 0
)");

  const std::string record0 = honest_record(plan, 0);
  EXPECT_EQ(a.deliver(record0), "OK");
  EXPECT_EQ(a.deliver(record0), "DUP");
  EXPECT_EQ(a.request("PING"), "PONG");
  EXPECT_EQ(a.request("RESUME 0123456789abcdef"), "RESUMED 0");
  EXPECT_EQ(a.request("BOGUS"), "ERR unknown message");
  EXPECT_TRUE(a.closed_by_peer());

  {
    RawClient no_hello(coordinator.port());
    EXPECT_EQ(no_hello.request("NEXT"),
              std::string("ERR expected HELLO ") + kSweepProtocolVersion);
    EXPECT_TRUE(no_hello.closed_by_peer());
  }
  {
    RawClient empty_result(coordinator.port());
    (void)empty_result.handshake();
    expect_plan_header(empty_result);
    EXPECT_EQ(empty_result.request("RESULT 0 0"), "ERR bad RESULT length");
    EXPECT_TRUE(empty_result.closed_by_peer());
  }
  {
    RawClient forger(coordinator.port());
    (void)forger.handshake();
    RunResult forged = plan.labelled_result(1);
    forged.metrics = {{"converged_gini", 0.0}};
    EXPECT_EQ(forger.deliver(serialize_run_record(plan.key(2), forged)),
              "ERR run key does not match the plan");
    EXPECT_TRUE(forger.closed_by_peer());
  }

  // A fresh session finishes the sweep one lease at a time.
  RawClient b(coordinator.port());
  (void)b.handshake();
  expect_plan_header(b);
  EXPECT_NE(b.token(), a.token());
  for (std::size_t idx = 1; idx < plan.size(); ++idx) {
    EXPECT_EQ(b.request("NEXT"), "RUN " + std::to_string(idx));
    EXPECT_EQ(b.deliver(honest_record(plan, idx)), "OK");
  }
  const auto results = serve.join();
  expect_identical(render(tiny_base(), tiny_sweep(), results),
                   render(tiny_base(), tiny_sweep(),
                          reference_results(tiny_base(), tiny_sweep())));
}

// ---- Live status endpoint ------------------------------------------------

TEST(Coordinator, StatusEndpointServesLiveAndDrainedState) {
  Coordinator::Options options;
  options.status_port = 0;  // ephemeral second listener
  // The final scrape follows the worker's DONE by milliseconds; the
  // window only has to outlast that.
  options.drain_seconds = 0.5;
  Coordinator coordinator(options);
  ASSERT_NE(coordinator.status_port(), 0);
  ASSERT_NE(coordinator.status_port(), coordinator.port());
  ServeThread serve(coordinator);

  const auto fetch = [&](const std::string& request_line) {
    return http_get(coordinator.status_port(), request_line);
  };
  const auto has = [](const std::string& haystack, const std::string& needle) {
    return haystack.find(needle) != std::string::npos;
  };

  // Mid-flight, before any worker connects: the plan is visible, nothing
  // has completed, and the response is a well-formed HTTP/JSON exchange.
  const std::string before = fetch("GET /status HTTP/1.0");
  EXPECT_TRUE(has(before, "HTTP/1.0 200 OK")) << before;
  EXPECT_TRUE(has(before, "Content-Type: application/json")) << before;
  EXPECT_TRUE(has(before, "\"plan_runs\":8")) << before;
  EXPECT_TRUE(has(before, "\"completed\":0")) << before;
  EXPECT_TRUE(has(before, "\"done\":false")) << before;
  EXPECT_TRUE(has(before, "\"workers\":[]")) << before;

  // Unknown paths get a 404, not a hang or a protocol error.
  const std::string lost = fetch("GET /nope HTTP/1.0");
  EXPECT_TRUE(has(lost, "404")) << lost;
  EXPECT_TRUE(has(lost, "try GET /status")) << lost;

  WorkerReport report;
  std::thread worker([&] {
    report = run_worker("127.0.0.1", coordinator.port(), WorkerOptions{});
  });
  worker.join();
  EXPECT_TRUE(report.completed) << report.error;

  // The workers are gone, but within the drain window a final scrape still
  // observes the drained terminal state — that is the whole point of
  // keeping the loop alive when the endpoint is enabled.
  const std::string after = fetch("GET /status HTTP/1.0");
  EXPECT_TRUE(has(after, "HTTP/1.0 200 OK")) << after;
  EXPECT_TRUE(has(after, "\"completed\":8")) << after;
  EXPECT_TRUE(has(after, "\"executed\":8")) << after;
  EXPECT_TRUE(has(after, "\"pending\":0")) << after;
  EXPECT_TRUE(has(after, "\"leased\":0")) << after;
  EXPECT_TRUE(has(after, "\"done\":true")) << after;
  EXPECT_TRUE(has(after, "\"eta_seconds\":0")) << after;
  EXPECT_TRUE(has(after, "\"lease_wall_ms\":{\"count\":8")) << after;

  const auto results = serve.join();
  EXPECT_EQ(results.size(), 8u);
  expect_identical(render(tiny_base(), tiny_sweep(), results),
                   render(tiny_base(), tiny_sweep(),
                          reference_results(tiny_base(), tiny_sweep())));
}

// ---- Warm RunStore -------------------------------------------------------

TEST(Coordinator, WarmRunStoreExecutesZeroRuns) {
  const auto dir = scratch_dir("warm_store");
  const auto reference = reference_results(tiny_base(), tiny_sweep());

  auto distributed_run = [&](std::size_t& executed, std::size_t& hits) {
    Coordinator::Options options;
    options.drain_seconds = 5.0;  // generous: the worker must reach DONE
    Coordinator coordinator(options);
    SweepRunner::Options runner;
    runner.cache_dir = dir.string();
    ServeThread serve(coordinator, tiny_base(), tiny_sweep(), runner);
    WorkerReport report;
    std::thread worker([&] {
      report = run_worker("127.0.0.1", coordinator.port(), WorkerOptions{});
    });
    worker.join();
    const auto results = serve.join();
    EXPECT_TRUE(report.completed) << report.error;
    executed = coordinator.status().executed;
    hits = coordinator.status().cache_hits;
    return results;
  };

  std::size_t cold_executed = 0;
  std::size_t cold_hits = 0;
  const auto cold = distributed_run(cold_executed, cold_hits);
  EXPECT_EQ(cold_executed, 8u);
  EXPECT_EQ(cold_hits, 0u);

  // Second sweep over the now-warm shared store: zero runs execute, every
  // result is recalled, and the output bytes do not move. The coordinator
  // is asked for no run, and still serves PLAN and DONE.
  std::size_t warm_executed = 0;
  std::size_t warm_hits = 0;
  const auto warm = distributed_run(warm_executed, warm_hits);
  EXPECT_EQ(warm_executed, 0u);
  EXPECT_EQ(warm_hits, 8u);
  for (const auto& r : warm) {
    EXPECT_TRUE(r.telemetry.from_cache) << r.run_index;
  }

  expect_identical(render(tiny_base(), tiny_sweep(), cold),
                   render(tiny_base(), tiny_sweep(), reference));
  expect_identical(render(tiny_base(), tiny_sweep(), warm),
                   render(tiny_base(), tiny_sweep(), reference));
}

// ---- Fault injection -----------------------------------------------------

/// Executor decorator that stalls before computing — a worker too slow for
/// its lease.
class SlowExecutor final : public Executor {
 public:
  explicit SlowExecutor(double delay_seconds) : delay_(delay_seconds) {}

  std::vector<RunResult> execute(const SweepPlan& plan,
                                 std::span<const std::size_t> run_indices,
                                 const ExecuteOptions& options) override {
    std::this_thread::sleep_for(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::duration<double>(delay_)));
    return inner_.execute(plan, run_indices, options);
  }

 private:
  double delay_;
  ThreadPoolExecutor inner_;
};

TEST(CoordinatorFaults, DuplicateDeliveryOfAStoredKeyIsDiscarded) {
  const auto reference = reference_results(tiny_base(), tiny_sweep());

  Coordinator coordinator(Coordinator::Options{});
  ServeThread serve(coordinator);

  {
    RawClient client(coordinator.port());
    const SweepPlan plan = client.handshake();
    const std::size_t leased = client.lease();
    const std::string record = honest_record(plan, leased);
    EXPECT_EQ(client.deliver(record), "OK");
    // The same completion again — a worker double-reporting after a retry.
    EXPECT_EQ(client.deliver(record), "DUP");
    client.vanish();
  }

  WorkerReport report;
  std::thread worker([&] {
    report = run_worker("127.0.0.1", coordinator.port(), WorkerOptions{});
  });
  worker.join();
  const auto results = serve.join();

  EXPECT_TRUE(report.completed) << report.error;
  EXPECT_EQ(coordinator.status().duplicates, 1u);
  EXPECT_EQ(coordinator.status().executed, 8u);
  expect_identical(render(tiny_base(), tiny_sweep(), results),
                   render(tiny_base(), tiny_sweep(), reference));
}

TEST(CoordinatorFaults, MismatchedRunKeyIsRejectedNotRecorded) {
  const auto reference = reference_results(tiny_base(), tiny_sweep());

  // The saboteur's connection closes holding a lease. With a short lease
  // (which also caps the resume grace) that run requeues within 0.5 s.
  Coordinator::Options options;
  options.lease_timeout_seconds = 0.5;
  Coordinator coordinator(options);
  ServeThread serve(coordinator);

  {
    RawClient saboteur(coordinator.port());
    const SweepPlan plan = saboteur.handshake();
    const std::size_t leased = saboteur.lease();
    // A record whose key belongs to a *different* run index — what a
    // worker on a mismatched plan (or binary) would deliver.
    const std::size_t other = (leased + 1) % plan.size();
    RunResult forged = plan.labelled_result(leased);
    forged.metrics = {{"converged_gini", 0.0}};
    const std::string bad_record =
        serialize_run_record(plan.key(other), forged);
    const std::string reply = saboteur.deliver(bad_record);
    EXPECT_EQ(reply.rfind("ERR", 0), 0u) << reply;
  }

  WorkerReport report;
  std::thread worker([&] {
    report = run_worker("127.0.0.1", coordinator.port(), WorkerOptions{});
  });
  worker.join();
  const auto results = serve.join();

  EXPECT_TRUE(report.completed) << report.error;
  EXPECT_EQ(report.runs_executed, 8u);  // the forgery contributed nothing
  EXPECT_GE(coordinator.status().requeued, 1u);  // the saboteur's lease
  expect_identical(render(tiny_base(), tiny_sweep(), results),
                   render(tiny_base(), tiny_sweep(), reference));
}

// ---- Protocol v2: RESUME, batched leases, crash recovery -----------------

TEST(CoordinatorResume, VanishedSessionReclaimsItsLeaseViaResume) {
  const auto reference = reference_results(tiny_base(), tiny_sweep());

  Coordinator coordinator(Coordinator::Options{});
  ServeThread serve(coordinator);

  // A session takes a lease, computes the run, and loses its connection
  // before delivering — then comes back under the same token.
  std::string token;
  std::size_t leased = 0;
  std::string record;
  {
    RawClient first(coordinator.port());
    const SweepPlan plan = first.handshake();
    token = first.token();
    leased = first.lease();
    record = honest_record(plan, leased);
    first.vanish();
  }
  {
    RawClient returned(coordinator.port());
    (void)returned.handshake();
    EXPECT_NE(returned.token(), token);  // fresh connection, fresh token
    const auto reclaimed = returned.resume(token);
    ASSERT_EQ(reclaimed.size(), 1u);
    EXPECT_EQ(reclaimed.front(), leased);
    // The reclaimed lease is live again: delivering its run is a first
    // completion, not a duplicate or an expired-lease discard.
    EXPECT_EQ(returned.deliver(record), "OK");
    returned.vanish();
  }

  WorkerReport report;
  std::thread worker([&] {
    report = run_worker("127.0.0.1", coordinator.port(), WorkerOptions{});
  });
  worker.join();
  const auto results = serve.join();

  EXPECT_TRUE(report.completed) << report.error;
  const SweepStatus status = coordinator.status();
  EXPECT_EQ(status.leases_resumed, 1u);
  EXPECT_EQ(status.requeued, 0u);  // nothing was forfeited
  EXPECT_EQ(status.executed, 8u);
  expect_identical(render(tiny_base(), tiny_sweep(), results),
                   render(tiny_base(), tiny_sweep(), reference));
}

TEST(CoordinatorResume, UnknownTokenResumesNothing) {
  Coordinator coordinator(Coordinator::Options{});
  ServeThread serve(coordinator);
  {
    RawClient client(coordinator.port());
    (void)client.handshake();
    // RESUMED 0, not ERR: the worker simply starts fresh.
    EXPECT_TRUE(client.resume("0123456789abcdef").empty());
    client.vanish();
  }
  WorkerReport report;
  std::thread worker([&] {
    report = run_worker("127.0.0.1", coordinator.port(), WorkerOptions{});
  });
  worker.join();
  (void)serve.join();
  EXPECT_TRUE(report.completed) << report.error;
  EXPECT_EQ(coordinator.status().leases_resumed, 0u);
}

TEST(Coordinator, AdaptiveLeaseBatchGrowsWithMeasuredThroughput) {
  Coordinator::Options options;
  options.lease_batch_max = 4;
  Coordinator coordinator(options);
  ServeThread serve(coordinator);

  {
    RawClient client(coordinator.port());
    const SweepPlan plan = client.handshake();
    // A fresh connection has no throughput history: the first grant is a
    // single run, so a straggler's failure forfeits at most one.
    const auto first = client.lease_batch();
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(client.deliver(honest_record(plan, first.front())), "OK");
    // One instant completion measures as enormous throughput: the next
    // grant fills the whole batch ceiling.
    const auto second = client.lease_batch();
    EXPECT_EQ(second.size(), 4u);
    for (const auto idx : second) {
      EXPECT_EQ(client.deliver(honest_record(plan, idx)), "OK");
    }
    client.vanish();
  }

  WorkerReport report;
  std::thread worker([&] {
    report = run_worker("127.0.0.1", coordinator.port(), WorkerOptions{});
  });
  worker.join();
  (void)serve.join();
  EXPECT_TRUE(report.completed) << report.error;
}

TEST(CoordinatorResume, CrashedCoordinatorResumesByteIdenticalToGolden) {
  // A coordinator that dies after 3 completions, restarted the same way on
  // the same cache, must finish the sweep executing only the missing runs
  // — and land on the *same pinned golden hashes* the single-process
  // engine and the uninterrupted distributed sweep do. The store is the
  // only state the crash leaves behind.
  const ScenarioSpec* preset =
      ScenarioRegistry::builtin().find("fig11_churn");
  ASSERT_NE(preset, nullptr);
  ScenarioSpec spec = *preset;
  ASSERT_EQ(spec.set_checked("horizon", 400.0), std::nullopt);
  ASSERT_EQ(spec.set_checked("snapshot_interval", 100.0), std::nullopt);
  SweepSpec sweep;
  sweep.axes.push_back(SweepAxis::parse("churn.arrival_rate=1,2"));
  sweep.axes.push_back(SweepAxis::parse("churn.mean_lifespan=100,200"));
  sweep.seeds = 2;

  const auto dir = scratch_dir("crash_restart");
  SweepRunner::Options runner;
  runner.cache_dir = (dir / "cache").string();

  // Phase 1: a session holds four leases and the sweep dies on its third
  // completion — after the store write, before the ack, exactly the
  // window a SIGKILL leaves.
  std::string token;
  std::size_t held_run = 0;
  std::string held_record;
  {
    SweepRunner::Options dying = runner;
    std::size_t fresh = 0;
    dying.on_result = [&fresh](const RunResult&) {
      if (++fresh == 3) {
        throw std::runtime_error("injected crash after 3 executed runs");
      }
    };
    Coordinator coordinator(Coordinator::Options{});
    ServeThread serve(coordinator, spec, sweep, dying);
    RawClient client(coordinator.port());
    const SweepPlan plan = client.handshake();
    token = client.token();
    std::vector<std::size_t> held;
    while (held.size() < 4) {
      for (const std::size_t idx : client.lease_batch()) held.push_back(idx);
    }
    EXPECT_EQ(client.deliver(honest_record(plan, held[0])), "OK");
    EXPECT_EQ(client.deliver(honest_record(plan, held[1])), "OK");
    client.send_result(honest_record(plan, held[2]));
    // The dying coordinator drops the connection instead of acking.
    EXPECT_TRUE(client.closed_by_peer());
    const std::string error = serve.join_error();
    EXPECT_NE(error.find("injected crash"), std::string::npos) << error;
    EXPECT_EQ(coordinator.status().executed, 3u);
    held_run = held[3];
    held_record = honest_record(plan, held_run);
  }

  // Phase 2: a fresh coordinator on the same cache recalls the 3 stored
  // runs and is asked for the other 5.
  Coordinator coordinator(Coordinator::Options{});
  ServeThread serve(coordinator, spec, sweep, runner);
  {
    // Phase 1's session outlived its coordinator. The new one does not
    // know its token, so it resumes nothing, and the run it still holds
    // is a first completion.
    RawClient returned(coordinator.port());
    (void)returned.handshake();
    EXPECT_TRUE(returned.resume(token).empty());
    EXPECT_EQ(returned.deliver(held_record), "OK");
    returned.vanish();
  }
  WorkerReport report;
  std::thread worker([&] {
    report = run_worker("127.0.0.1", coordinator.port(), WorkerOptions{});
  });
  worker.join();
  const auto results = serve.join();

  EXPECT_TRUE(report.completed) << report.error;
  EXPECT_EQ(report.runs_executed, 4u);
  const SweepStatus status = coordinator.status();
  EXPECT_EQ(status.cache_hits, 3u);
  EXPECT_EQ(status.executed, 5u);
  EXPECT_EQ(status.leases_resumed, 0u);
  EXPECT_EQ(status.duplicates, 0u);
  ASSERT_EQ(results.size(), 8u);

  ResultSink sink;
  sink.add_all(results);
  EXPECT_EQ(util::fnv1a64(sink.aggregate_csv()), 0xbd9622db89f1920bULL);
  EXPECT_EQ(util::fnv1a64(sink.aggregate_json()), 0x1d7620dbf7cda782ULL);
  EXPECT_EQ(util::fnv1a64(sink.runs_csv()), 0xc27d93ece3617262ULL);
}

TEST(CoordinatorResume, SurvivingWorkerAdoptsTheRestartedPlansCadence) {
  // A worker session outlives a coordinator that collected no series and
  // ran 30 s leases. The coordinator comes back on the same port and cache
  // with series_every 1, a series prefix and 0.3 s leases. The surviving
  // session must take both from the new PLAN: every run it computes after
  // the restart writes the series file a local sweep writes, and its
  // heartbeat keeps runs slower than the lease from being requeued. The
  // result it held from the old cadence, a run the new coordinator
  // recalls from its store, is dropped rather than computed again.
  const auto dir = scratch_dir("restart_cadence");
  const SweepPlan plan(tiny_base(), tiny_sweep());
  SweepRunner::Options runner;
  runner.cache_dir = (dir / "cache").string();

  SlowExecutor slow(0.5);
  WorkerOptions worker_options;
  worker_options.executor = &slow;
  WorkerReport report;
  std::thread worker;
  std::uint16_t port = 0;
  {
    // Phase 1 dies on its second stored completion, before the ack.
    SweepRunner::Options dying = runner;
    std::size_t fresh = 0;
    dying.on_result = [&fresh](const RunResult&) {
      if (++fresh == 2) {
        throw std::runtime_error("injected crash after 2 executed runs");
      }
    };
    Coordinator coordinator(Coordinator::Options{});
    port = coordinator.port();
    ServeThread serve(coordinator, tiny_base(), tiny_sweep(), dying);
    worker = std::thread([&] {
      report = run_worker("127.0.0.1", port, worker_options);
    });
    const std::string error = serve.join_error();
    EXPECT_NE(error.find("injected crash"), std::string::npos) << error;
  }

  Coordinator::Options restarted_options;
  restarted_options.port = port;
  restarted_options.lease_timeout_seconds = 0.3;
  Coordinator coordinator(restarted_options);
  SweepRunner::Options restarted = runner;
  restarted.series_every = 1;
  restarted.series_out_prefix = (dir / "dist").string();
  ServeThread serve(coordinator, tiny_base(), tiny_sweep(), restarted);
  worker.join();
  (void)serve.join();
  EXPECT_TRUE(report.completed) << report.error;
  EXPECT_GE(report.reconnects, 1u);
  const SweepStatus status = coordinator.status();
  EXPECT_EQ(status.cache_hits, 2u);
  EXPECT_EQ(status.executed, plan.size() - 2);
  EXPECT_EQ(status.requeued, 0u);
  EXPECT_EQ(status.duplicates, 0u);
  EXPECT_EQ(report.duplicates, 0u);

  SweepRunner::Options local;
  local.jobs = 1;
  local.keep_reports = false;
  local.series_every = 1;
  local.series_out_prefix = (dir / "local").string();
  (void)SweepRunner(tiny_base(), tiny_sweep(), local).run();
  std::size_t written = 0;
  for (std::size_t idx = 0; idx < plan.size(); ++idx) {
    const std::string suffix = ".run" + std::to_string(idx) + ".csv";
    if (!std::filesystem::exists(dir / ("dist" + suffix))) continue;
    ++written;
    const std::string expected = read_file(dir / ("local" + suffix));
    EXPECT_FALSE(expected.empty()) << idx;
    EXPECT_EQ(read_file(dir / ("dist" + suffix)), expected) << idx;
  }
  // A recalled run has no series; every run executed after the restart
  // has one.
  EXPECT_EQ(written, status.executed);
}

TEST(Coordinator, RejectsLeaseTimeoutsNoWorkerCanUse) {
  // PLAN announces the timeout in whole milliseconds, and a worker rejects
  // a header whose count is not positive. inf and 1e300 have no such
  // count; 1e-9 rounds to 0. Each is refused before the port binds.
  EXPECT_EQ(lease_timeout_ms(30.0), 30000);
  EXPECT_EQ(lease_timeout_ms(0.0005), 1);
  for (const double bad : {std::numeric_limits<double>::infinity(), 1e300,
                           1e-9, 0.0, -1.0, std::nan("")}) {
    EXPECT_FALSE(lease_timeout_ms(bad).has_value()) << bad;
  }
  for (const double bad : {std::numeric_limits<double>::infinity(), 1e-9}) {
    Coordinator::Options options;
    options.lease_timeout_seconds = bad;
    EXPECT_THROW(Coordinator{options}, util::PreconditionError) << bad;
  }
}

TEST(Coordinator, RefusesToKeepReports) {
  // A run record carries no report: a sweep that keeps reports fails
  // loudly rather than returning empty ones.
  Coordinator coordinator(Coordinator::Options{});
  SweepRunner::Options options;
  options.executor = &coordinator;  // keep_reports stays at its default
  EXPECT_THROW((void)SweepRunner(tiny_base(), tiny_sweep(), options).run(),
               util::PreconditionError);
}

// ---- Remote series streaming ---------------------------------------------

TEST(Coordinator, RemoteSeriesFilesAreByteIdenticalToLocalExecution) {
  const auto dir = scratch_dir("remote_series");
  const SweepPlan plan(tiny_base(), tiny_sweep());

  // Reference: a local sweep writing its own files.
  {
    SweepRunner::Options local;
    local.jobs = 1;
    local.keep_reports = false;
    local.series_every = 2;
    local.series_out_prefix = (dir / "local").string();
    (void)SweepRunner(tiny_base(), tiny_sweep(), local).run();
  }

  // Distributed: workers collect the series and stream it back with each
  // RESULT; the runner writes the files, as it does for a local sweep.
  Coordinator coordinator(Coordinator::Options{});
  SweepRunner::Options runner;
  runner.series_every = 2;
  runner.series_out_prefix = (dir / "dist").string();
  ServeThread serve(coordinator, tiny_base(), tiny_sweep(), runner);
  WorkerReport report;
  std::thread worker([&] {
    report = run_worker("127.0.0.1", coordinator.port(), WorkerOptions{});
  });
  worker.join();
  (void)serve.join();
  EXPECT_TRUE(report.completed) << report.error;

  for (std::size_t idx = 0; idx < plan.size(); ++idx) {
    const std::string suffix = ".run" + std::to_string(idx) + ".csv";
    const std::string local = read_file(dir / ("local" + suffix));
    EXPECT_FALSE(local.empty()) << idx;
    EXPECT_EQ(read_file(dir / ("dist" + suffix)), local) << idx;
  }
}

// ---- Worker backoff telemetry --------------------------------------------

TEST(Coordinator, StarvedSessionsReportWaitRetries) {
  // One run, two sessions: whichever session leases it stalls in a slow
  // executor while the other polls NEXT → WAIT through the backoff
  // schedule until DONE. The retries surface in the worker report. The
  // run outlasts its lease timeout, so only the session's heartbeat keeps
  // the lease from being revoked.
  SweepSpec one_run;
  one_run.axes.push_back(SweepAxis::parse("credits=30"));
  one_run.seeds = 1;
  Coordinator::Options coordinator_options;
  coordinator_options.lease_timeout_seconds = 0.3;
  Coordinator coordinator(coordinator_options);
  ServeThread serve(coordinator, tiny_base(), one_run);

  SlowExecutor slow(0.5);
  WorkerOptions options;
  options.sessions = 2;
  options.executor = &slow;
  WorkerReport report;
  std::thread worker([&] {
    report = run_worker("127.0.0.1", coordinator.port(), options);
  });
  worker.join();
  (void)serve.join();

  EXPECT_TRUE(report.completed) << report.error;
  EXPECT_EQ(report.runs_executed, 1u);
  EXPECT_GE(report.wait_retries, 1u);
  EXPECT_EQ(coordinator.status().requeued, 0u);
}

}  // namespace
}  // namespace creditflow::scenario
