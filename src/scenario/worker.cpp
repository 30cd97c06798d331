#include "scenario/worker.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>

#include "scenario/coordinator.hpp"
#include "scenario/store.hpp"
#include "util/backoff.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"

namespace creditflow::scenario {

namespace {

using Clock = std::chrono::steady_clock;

/// Session timing: a reply may take kIoTimeoutSeconds; the first connect
/// (workers may start before the coordinator binds) and each reconnect
/// retry within their windows, then the lease timeout takes over. Retries
/// and WAITs back off on util::Backoff's default schedule (0.05 s doubling
/// to 1 s), jittered per session from kBackoffSeed.
constexpr double kIoTimeoutSeconds = 60.0;
constexpr double kConnectWindowSeconds = 10.0;
constexpr double kReconnectWindowSeconds = 30.0;
constexpr std::uint64_t kBackoffSeed = 0xbacc0ff5eedULL;

struct SessionOutcome {
  std::size_t executed = 0;
  std::size_t duplicates = 0;
  std::size_t connect_retries = 0;
  std::size_t wait_retries = 0;
  std::size_t reconnects = 0;
  std::size_t leases_resumed = 0;
  bool saw_done = false;
  std::string error;
};

/// One computed result awaiting acknowledgement — survives reconnects, so
/// a run finished while the link was down is delivered, not recomputed.
/// One taken at a series cadence the coordinator no longer asks for is
/// dropped.
struct Delivery {
  std::size_t run_index = 0;
  RunResult result;
  std::string record;  ///< serialized run-record JSONL
  std::string series;  ///< per-run series CSV ("" when not collected)
};

void sleep_seconds(double seconds) {
  std::this_thread::sleep_for(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::duration<double>(seconds)));
}

/// One lease loop with reconnect-and-RESUME. `io_mutex_` serializes
/// request/response pairs between the main loop and the heartbeat thread —
/// the coordinator answers strictly in order, so whoever holds the mutex
/// reads its own reply.
class Session {
 public:
  Session(const std::string& host, std::uint16_t port,
          const WorkerOptions& options, Executor& executor,
          std::mutex& callback_mutex, std::atomic<bool>& sweep_done,
          std::size_t session_index)
      : host_(host),
        port_(port),
        options_(options),
        executor_(executor),
        callback_mutex_(callback_mutex),
        sweep_done_(sweep_done),
        connect_backoff_(
            {.seed = util::derive_seed(kBackoffSeed, session_index * 2)}),
        wait_backoff_({.seed = util::derive_seed(kBackoffSeed,
                                                 session_index * 2 + 1)}) {}

  SessionOutcome run();

 private:
  bool establish(bool resuming);
  bool attempt(bool resuming, std::string& hard_error);
  bool io_request(const std::string& message, std::string& reply);
  bool deliver_front();
  bool acquire_leases();
  void execute_front_lease();
  void start_heartbeat();

  const std::string& host_;
  const std::uint16_t port_;
  const WorkerOptions& options_;
  Executor& executor_;
  std::mutex& callback_mutex_;
  std::atomic<bool>& sweep_done_;

  std::mutex io_mutex_;
  util::Socket socket_;
  std::optional<util::SocketReader> reader_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> broken_{false};
  std::thread heartbeat_thread_;

  std::optional<SweepPlan> plan_;
  std::string plan_text_;  ///< spec ‖ sweep, for identity checks on resume
  // The current PLAN header's lease timeout and series cadence. A restarted
  // coordinator may announce others; the heartbeat thread reads the lease.
  std::atomic<long long> lease_ms_{0};
  std::size_t series_every_ = 0;
  std::string token_;  ///< current session identity at the coordinator

  std::deque<std::size_t> leased_;
  std::deque<Delivery> undelivered_;

  util::Backoff connect_backoff_;
  util::Backoff wait_backoff_;
  SessionOutcome outcome_;
};

bool Session::io_request(const std::string& message, std::string& reply) {
  const std::lock_guard<std::mutex> lock(io_mutex_);
  if (!socket_.send_all(message) ||
      reader_->read_line(reply, kIoTimeoutSeconds) != util::IoStatus::kOk) {
    broken_.store(true);
    return false;
  }
  return true;
}

bool Session::attempt(bool /*resuming*/, std::string& hard_error) {
  reader_.reset();
  socket_.close();
  try {
    socket_ = util::Socket::connect(host_, port_, 1.0);
  } catch (const util::SocketError&) {
    return false;
  }
  reader_.emplace(socket_);

  std::string line;
  if (!socket_.send_all(std::string("HELLO ") + kSweepProtocolVersion +
                        "\n") ||
      reader_->read_line(line, kIoTimeoutSeconds) != util::IoStatus::kOk) {
    return false;  // connection-level failure: retry within the window
  }
  if (line.rfind("PLAN ", 0) != 0) {
    hard_error = "handshake failed: " + line;
    return false;
  }
  char* end = nullptr;
  const long long lease_ms = std::strtoll(line.c_str() + 5, &end, 10);
  const std::size_t spec_len = std::strtoull(end, &end, 10);
  const std::size_t sweep_len = std::strtoull(end, &end, 10);
  const std::size_t series_every = std::strtoull(end, &end, 10);
  if (lease_ms <= 0 || spec_len == 0 || *end != ' ' || end[1] == '\0') {
    hard_error = "malformed PLAN header: " + line;
    return false;
  }
  const std::string token(end + 1);
  std::string spec_text;
  std::string sweep_text;
  if (reader_->read_exact(spec_text, spec_len, kIoTimeoutSeconds) !=
          util::IoStatus::kOk ||
      reader_->read_exact(sweep_text, sweep_len, kIoTimeoutSeconds) !=
          util::IoStatus::kOk) {
    return false;
  }

  if (!plan_) {
    try {
      plan_.emplace(ScenarioSpec::parse(spec_text),
                    SweepSpec::parse(sweep_text));
    } catch (const std::exception& e) {
      hard_error =
          std::string("cannot parse the coordinator's plan: ") + e.what();
      return false;
    }
    plan_text_ = spec_text + sweep_text;
    lease_ms_.store(lease_ms);
    series_every_ = series_every;
    token_ = token;
    return true;
  }

  // Reconnect: the coordinator answering this port must still be serving
  // the same plan (a coordinator restarted with the same command is; some
  // unrelated sweep on a recycled port is not).
  if (spec_text + sweep_text != plan_text_) {
    hard_error = "coordinator now serves a different plan; not resuming";
    return false;
  }
  // A restarted coordinator may run with another lease timeout and series
  // cadence. The heartbeat follows the lease. A held result taken at
  // another cadence carries the wrong series: it is dropped, and the
  // coordinator leases the run again if its store does not hold it.
  if (series_every != series_every_) undelivered_.clear();
  lease_ms_.store(lease_ms);
  series_every_ = series_every;
  std::string resumed;
  if (!socket_.send_all("RESUME " + token_ + "\n") ||
      reader_->read_line(resumed, kIoTimeoutSeconds) != util::IoStatus::kOk) {
    return false;
  }
  if (resumed.rfind("RESUMED ", 0) != 0) {
    hard_error = "unexpected RESUME reply: " + resumed;
    return false;
  }
  const char* cursor = resumed.c_str() + 8;
  char* rend = nullptr;
  const unsigned long long reclaimed = std::strtoull(cursor, &rend, 10);
  if (rend == cursor) {
    hard_error = "malformed RESUME reply: " + resumed;
    return false;
  }
  leased_.clear();
  for (unsigned long long k = 0; k < reclaimed; ++k) {
    cursor = rend;
    const std::size_t idx = std::strtoull(cursor, &rend, 10);
    if (rend == cursor || idx >= plan_->size()) {
      hard_error = "bad reclaimed lease in: " + resumed;
      return false;
    }
    // A reclaimed run whose result is waiting to go out is delivered, not
    // computed again.
    if (std::none_of(undelivered_.begin(), undelivered_.end(),
                     [idx](const Delivery& d) { return d.run_index == idx; })) {
      leased_.push_back(idx);
    }
  }
  if (reclaimed > 0) {
    outcome_.leases_resumed += static_cast<std::size_t>(reclaimed);
    // The coordinator adopted our old identity; keep using it.
  } else {
    token_ = token;  // old session expired — continue under the fresh one
  }
  return true;
}

bool Session::establish(bool resuming) {
  const double window =
      resuming ? kReconnectWindowSeconds : kConnectWindowSeconds;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(window));
  const std::lock_guard<std::mutex> lock(io_mutex_);
  connect_backoff_.reset();
  while (true) {
    if (resuming && sweep_done_.load()) {
      outcome_.error = "coordinator gone after the sweep finished";
      return false;
    }
    std::string hard_error;
    if (attempt(resuming, hard_error)) return true;
    if (!hard_error.empty()) {
      outcome_.error = hard_error;
      return false;
    }
    if (Clock::now() >= deadline) {
      outcome_.error = resuming
                           ? "coordinator unreachable past the reconnect "
                             "window"
                           : "cannot connect to the coordinator";
      return false;
    }
    ++outcome_.connect_retries;
    sleep_seconds(connect_backoff_.next());
  }
}

void Session::start_heartbeat() {
  heartbeat_thread_ = std::thread([this] {
    // A quarter of the current lease timeout, read at every tick, so a
    // shorter lease announced on reconnect takes effect at once.
    const auto interval = [this] {
      return std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(std::clamp(
              static_cast<double>(lease_ms_.load()) / 4000.0, 0.05, 5.0)));
    };
    auto last_beat = Clock::now();
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      // A broken link is the main loop's to fix: pinging a dead socket
      // adds nothing, and pinging a fresh one mid-reconnect would race
      // the handshake.
      if (broken_.load() || Clock::now() < last_beat + interval()) continue;
      last_beat = Clock::now();
      const std::lock_guard<std::mutex> lock(io_mutex_);
      if (stop_.load() || broken_.load()) continue;
      std::string pong;
      if (!socket_.send_all("PING\n") ||
          reader_->read_line(pong, kIoTimeoutSeconds) !=
              util::IoStatus::kOk ||
          pong != "PONG") {
        broken_.store(true);
      }
    }
  });
}

/// Send the front undelivered result; true → acknowledged (popped), false
/// → either the link broke (broken_) or a hard error (outcome_.error).
bool Session::deliver_front() {
  const Delivery& d = undelivered_.front();
  std::string ack;
  if (!io_request("RESULT " + std::to_string(d.record.size()) + " " +
                      std::to_string(d.series.size()) + "\n" + d.record +
                      d.series,
                  ack)) {
    return false;
  }
  if (ack == "OK") {
    ++outcome_.executed;
    if (options_.on_result) {
      const std::lock_guard<std::mutex> lock(callback_mutex_);
      options_.on_result(undelivered_.front().result);
    }
  } else if (ack == "DUP") {
    // The coordinator already had this run (our lease was stolen after a
    // stall, or we redelivered after a reconnect and the first copy had
    // landed). Not an error: the sweep's output is already safe.
    ++outcome_.duplicates;
  } else {
    outcome_.error = "coordinator rejected run " +
                     std::to_string(d.run_index) + ": " + ack;
    return false;
  }
  undelivered_.pop_front();
  return true;
}

/// Ask for a lease batch; true → leased_ refilled. false → WAIT slept /
/// DONE / broken / hard error (callers re-check state).
bool Session::acquire_leases() {
  std::string reply;
  if (!io_request("NEXT\n", reply)) return false;
  if (reply == "DONE") {
    outcome_.saw_done = true;
    sweep_done_.store(true);
    return false;
  }
  if (reply == "WAIT") {
    ++outcome_.wait_retries;
    sleep_seconds(wait_backoff_.next());
    return false;
  }
  if (reply.rfind("RUN ", 0) != 0) {
    outcome_.error = "unexpected coordinator reply: " + reply;
    return false;
  }
  const char* cursor = reply.c_str() + 3;
  char* end = nullptr;
  while (true) {
    const std::size_t idx = std::strtoull(cursor, &end, 10);
    if (end == cursor) break;
    if (idx >= plan_->size()) {
      outcome_.error = "bad lease: " + reply;
      return false;
    }
    leased_.push_back(idx);
    cursor = end;
  }
  if (leased_.empty()) {
    outcome_.error = "empty lease batch: " + reply;
    return false;
  }
  wait_backoff_.reset();
  return true;
}

void Session::execute_front_lease() {
  const std::size_t run_index = leased_.front();
  leased_.pop_front();

  // Execute through the Executor interface — the same contract the
  // in-process thread pool fulfils, so a run computed here is the run a
  // local sweep would have computed, series bytes included.
  ExecuteOptions exec_options;
  exec_options.jobs = 1;  // one run at a time; sessions are the fan-out
  exec_options.keep_reports = false;
  exec_options.series_every = series_every_;
  std::string series;
  exec_options.on_result = [&series](const RunResult&,
                                     const std::string& csv) {
    series = csv;
  };
  const std::size_t indices[1] = {run_index};
  std::vector<RunResult> computed =
      executor_.execute(*plan_, indices, exec_options);
  Delivery d;
  d.run_index = run_index;
  d.result = std::move(computed.at(0));
  d.record = serialize_run_record(plan_->key(run_index), d.result);
  d.series = std::move(series);
  undelivered_.push_back(std::move(d));
}

SessionOutcome Session::run() {
  if (!establish(false)) return outcome_;
  start_heartbeat();

  while (outcome_.error.empty() && !outcome_.saw_done) {
    if (broken_.load()) {
      ++outcome_.reconnects;
      if (!establish(true)) break;
      broken_.store(false);
      continue;
    }
    // Results computed before (or during) a disconnect go out first: the
    // coordinator may be waiting on exactly these runs.
    if (!undelivered_.empty()) {
      (void)deliver_front();
      continue;
    }
    if (leased_.empty()) {
      (void)acquire_leases();
      continue;
    }
    execute_front_lease();
  }

  stop_.store(true);
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  return outcome_;
}

}  // namespace

WorkerReport run_worker(const std::string& host, std::uint16_t port,
                        const WorkerOptions& options) {
  const std::size_t sessions =
      options.sessions != 0
          ? options.sessions
          : std::max(1u, std::thread::hardware_concurrency());

  ThreadPoolExecutor default_executor;
  Executor& executor = options.executor != nullptr ? *options.executor
                                                   : default_executor;

  std::vector<SessionOutcome> outcomes(sessions);
  std::mutex callback_mutex;
  std::atomic<bool> sweep_done{false};
  std::vector<std::thread> threads;
  threads.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      Session session(host, port, options, executor, callback_mutex,
                      sweep_done, s);
      outcomes[s] = session.run();
    });
  }
  for (auto& t : threads) t.join();

  WorkerReport report;
  for (const auto& outcome : outcomes) {
    report.runs_executed += outcome.executed;
    report.duplicates += outcome.duplicates;
    report.connect_retries += outcome.connect_retries;
    report.wait_retries += outcome.wait_retries;
    report.reconnects += outcome.reconnects;
    report.leases_resumed += outcome.leases_resumed;
    if (outcome.saw_done) ++report.sessions_completed;
    if (!outcome.saw_done && !outcome.error.empty() &&
        report.error.empty()) {
      report.error = outcome.error;
    }
  }
  report.completed = report.sessions_completed > 0;
  if (report.completed) {
    // The sweep finished; a sibling session racing the shutdown (its NEXT
    // crossed the coordinator's drain) is not a failure.
    report.error.clear();
  }
  return report;
}

}  // namespace creditflow::scenario
