#include "scenario/coordinator.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>

#include "scenario/store.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"

namespace creditflow::scenario {

namespace {

using Clock = std::chrono::steady_clock;

/// Ceiling on a RESULT payload announcement: a run record is a few hundred
/// bytes and a series CSV a few MiB at pathological cadences, so anything
/// past this is a corrupt or hostile header.
constexpr std::size_t kMaxResultBytes = std::size_t{16} * 1024 * 1024;

/// The /status JSON body.
std::string status_json(const SweepStatus& s) {
  std::ostringstream out;
  out << "{\"plan_runs\":" << s.plan_runs
      << ",\"completed\":" << s.completed
      << ",\"pending\":" << s.pending
      << ",\"leased\":" << s.leased
      << ",\"orphaned_leases\":" << s.orphaned_leases
      << ",\"executed\":" << s.executed
      << ",\"cache_hits\":" << s.cache_hits
      << ",\"requeued\":" << s.requeued
      << ",\"duplicates\":" << s.duplicates
      << ",\"workers_seen\":" << s.workers_seen
      << ",\"leases_resumed\":" << s.leases_resumed
      << ",\"done\":" << (s.done ? "true" : "false")
      << ",\"elapsed_seconds\":" << json_number(s.elapsed_seconds)
      << ",\"eta_seconds\":"
      << (s.eta_seconds ? json_number(*s.eta_seconds) : "null")
      << ",\"lease_wall_ms\":{\"count\":" << s.lease_wall_ms.count()
      << ",\"mean\":" << json_number(s.lease_wall_ms.mean())
      << ",\"p50\":" << json_number(s.lease_wall_ms.approx_quantile(0.5))
      << ",\"p90\":" << json_number(s.lease_wall_ms.approx_quantile(0.9))
      << ",\"max\":" << s.lease_wall_ms.max() << "},\"workers\":[";
  for (std::size_t k = 0; k < s.workers.size(); ++k) {
    const SweepStatus::Worker& w = s.workers[k];
    if (k > 0) out << ',';
    out << "{\"fd\":" << w.id << ",\"completed\":" << w.completed
        << ",\"active_leases\":" << w.active_leases
        << ",\"throughput_runs_per_s\":" << json_number(w.throughput_runs_per_s)
        << ",\"last_heartbeat_age_seconds\":"
        << json_number(w.last_heartbeat_age_seconds) << '}';
  }
  out << "]}";
  return out.str();
}

/// The /metrics twin of /status: the same snapshot in Prometheus text
/// exposition format. Gauges, not counters, from Prometheus's point of
/// view — a restarted coordinator restarts the sweep.
std::string metrics_text(const SweepStatus& s) {
  std::ostringstream out;
  auto gauge = [&out](std::string_view name, std::string_view help,
                      auto value) {
    out << "# HELP creditflow_sweep_" << name << ' ' << help << '\n'
        << "# TYPE creditflow_sweep_" << name << " gauge\n"
        << "creditflow_sweep_" << name << ' ' << value << '\n';
  };
  gauge("plan_runs", "Total runs in the sweep plan.", s.plan_runs);
  gauge("completed_runs", "Runs completed (executed or cache hits).",
        s.completed);
  gauge("pending_runs", "Runs queued and not yet leased.", s.pending);
  gauge("leased_runs", "Runs currently leased to workers.", s.leased);
  gauge("executed_runs", "Runs freshly executed by workers.", s.executed);
  gauge("cache_hits", "Runs answered from the run store.", s.cache_hits);
  gauge("requeued_runs", "Leases revoked after worker silence.",
        s.requeued);
  gauge("duplicate_results", "Results delivered for already-done runs.",
        s.duplicates);
  gauge("workers_seen", "Distinct workers that ever joined.",
        s.workers_seen);
  gauge("leases_resumed", "Leases reclaimed via the RESUME handshake.",
        s.leases_resumed);
  gauge("done", "1 when every planned run is complete.",
        s.done ? 1 : 0);
  gauge("elapsed_seconds", "Wall time since the coordinator started.",
        util::format_double(s.elapsed_seconds));
  gauge("lease_wall_ms_p50", "Median lease wall time in milliseconds.",
        util::format_double(s.lease_wall_ms.approx_quantile(0.5)));
  gauge("lease_wall_ms_p90", "90th-percentile lease wall time (ms).",
        util::format_double(s.lease_wall_ms.approx_quantile(0.9)));
  out << "# HELP creditflow_sweep_worker_completed_runs Runs completed "
         "per connected worker.\n"
         "# TYPE creditflow_sweep_worker_completed_runs gauge\n";
  for (const SweepStatus::Worker& w : s.workers) {
    out << "creditflow_sweep_worker_completed_runs{fd=\"" << w.id << "\"} "
        << w.completed << '\n';
  }
  return out.str();
}

}  // namespace

std::optional<long long> lease_timeout_ms(double seconds) {
  const double ms = seconds * 1000.0 + 0.5;
  if (!(ms >= 1.0 && ms < 0x1p63)) return std::nullopt;  // NaN and ±inf too
  return static_cast<long long>(ms);
}

struct Coordinator::Impl {
  Options options;
  util::Listener listener;
  util::Listener status_listener;  ///< invalid unless status_port >= 0
  const Clock::time_point started = Clock::now();

  /// The sweep execute() serves; empty before it.
  const SweepPlan* plan = nullptr;
  std::function<void(const RunResult&, const std::string&)> on_result;
  /// "PLAN <lease_ms> <spec_len> <sweep_len> <series_every> " — the
  /// per-session token is appended at handshake time.
  std::string plan_header_prefix;
  /// spec text ‖ sweep text, sent verbatim after the PLAN header.
  std::string plan_payload;
  std::vector<RunKey> keys;  ///< keys[i] = plan->key(i), for validation
  std::optional<LeaseScheduler> scheduler;
  std::vector<RunResult> results;  ///< by run index
  bool ran = false;

  /// A worker session (its descriptor is its scheduler id), or a status
  /// client served and closed per request.
  struct Conn {
    util::Socket socket;
    std::string inbuf;
    bool status_client = false;
    /// Token issued at HELLO ("" before it) or adopted through RESUME.
    std::string session;
    std::size_t payload_remaining = 0;  ///< >0 → mid-RESULT payload
    std::size_t payload_record_bytes = 0;  ///< record prefix of the payload
    std::string payload;
  };
  std::map<int, Conn> conns;  ///< keyed by descriptor

  /// Session-token stream: unique across restarts (wall-clock seeded) and
  /// across sessions (counter mixed in); purely an identifier, no secrecy.
  std::uint64_t token_state;
  std::uint64_t token_counter = 0;

  /// The scheduler's clock: seconds since construction.
  [[nodiscard]] double elapsed() const {
    return std::chrono::duration<double>(Clock::now() - started).count();
  }

  [[nodiscard]] std::string next_token() {
    const std::uint64_t raw = util::derive_seed(token_state, ++token_counter);
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(raw));
    return std::string(buf);
  }

  explicit Impl(Options opts) : options(std::move(opts)) {
    CF_EXPECTS_MSG(lease_timeout_ms(options.lease_timeout_seconds),
                   "lease timeout must round to at least 1 ms and below "
                   "2^63 ms");
    token_state = static_cast<std::uint64_t>(
        std::chrono::system_clock::now().time_since_epoch().count());
    listener = util::Listener::bind(options.host, options.port);
    if (options.status_port >= 0) {
      status_listener = util::Listener::bind(
          options.host, static_cast<std::uint16_t>(options.status_port));
    }
  }

  /// Bind the serving state to `sweep`: the PLAN header and a scheduler in
  /// which every run not in `requested` is already complete.
  void start(const SweepPlan& sweep, std::span<const std::size_t> requested,
             std::size_t series_every) {
    plan = &sweep;
    const std::string spec_text = sweep.base().serialize();
    const std::string sweep_text = sweep.sweep().serialize();
    plan_header_prefix =
        "PLAN " +
        std::to_string(*lease_timeout_ms(options.lease_timeout_seconds)) +
        " " + std::to_string(spec_text.size()) + " " +
        std::to_string(sweep_text.size()) + " " +
        std::to_string(series_every) + " ";
    plan_payload = spec_text + sweep_text;
    keys.reserve(sweep.size());
    for (std::size_t i = 0; i < sweep.size(); ++i) keys.push_back(sweep.key(i));
    results.resize(sweep.size());

    std::vector<char> asked(sweep.size(), 0);
    for (const std::size_t idx : requested) {
      CF_EXPECTS_MSG(idx < sweep.size() && asked[idx] == 0,
                     "requested runs must be distinct entries of the plan");
      asked[idx] = 1;
    }
    scheduler.emplace(sweep.size(), options.lease_timeout_seconds,
                      options.lease_batch_max);
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      if (asked[i] == 0) scheduler->recall(i);
    }
  }

  /// Handle the completed RESULT payload (record ‖ series) of `conn`;
  /// false → protocol violation, close the connection.
  bool handle_result(int fd, Conn& conn, double now) {
    const std::string& payload = conn.payload;
    const std::size_t record_bytes = conn.payload_record_bytes;
    RunRecord record;
    try {
      record = parse_run_record(payload.substr(0, record_bytes));
    } catch (const std::exception& e) {
      CF_LOG_WARN("coordinator: unparseable run record: " << e.what());
      (void)conn.socket.send_all("ERR malformed run record\n");
      return false;
    }
    const std::size_t idx = record.result.run_index;
    if (idx >= keys.size() || !(record.key == keys[idx])) {
      // A worker on a different plan (other spec text, other binary) can
      // never corrupt the result set: its keys cannot match ours.
      CF_LOG_WARN("coordinator: rejecting record with mismatched key for run "
                  << idx);
      (void)conn.socket.send_all("ERR run key does not match the plan\n");
      return false;
    }
    // First completion wins, whoever delivers it — including a worker
    // whose lease was already revoked.
    if (!scheduler->complete(idx, fd, now)) {
      return conn.socket.send_all("DUP\n");
    }
    RunResult merged = plan->labelled_result(idx, std::move(record.result));
    // Durability order: the caller stores the result before the worker
    // hears OK, so a coordinator that crashes after the store write is not
    // asked for the run again; the worker's redelivery is a DUP.
    if (on_result) on_result(merged, payload.substr(record_bytes));
    results[idx] = std::move(merged);
    return conn.socket.send_all("OK\n");
  }

  /// Handle one protocol line; false → close the connection (either a
  /// violation or an orderly DONE hand-off).
  bool handle_line(int fd, Conn& conn, const std::string& line,
                   double now) {
    if (conn.session.empty()) {
      if (line == std::string("HELLO ") + kSweepProtocolVersion) {
        conn.session = next_token();
        scheduler->join(fd, now);
        return conn.socket.send_all(plan_header_prefix + conn.session + "\n" +
                                    plan_payload);
      }
      (void)conn.socket.send_all("ERR expected HELLO " +
                                 std::string(kSweepProtocolVersion) + "\n");
      return false;
    }
    if (line == "PING") return conn.socket.send_all("PONG\n");
    if (line.rfind("RESUME ", 0) == 0) {
      // An unknown or expired token resumes nothing — the worker simply
      // starts fresh; otherwise it carries on under the resumed identity.
      const std::string token = line.substr(7);
      const auto reclaimed = scheduler->resume(fd, token, now);
      if (!reclaimed.empty()) conn.session = token;
      std::string reply = "RESUMED " + std::to_string(reclaimed.size());
      for (const std::size_t idx : reclaimed) {
        reply += " " + std::to_string(idx);
      }
      return conn.socket.send_all(reply + "\n");
    }
    if (line == "NEXT") {
      if (scheduler->done()) {
        // Orderly completion: the worker disconnects after reading DONE.
        (void)conn.socket.send_all("DONE\n");
        return false;
      }
      const auto granted = scheduler->grant(fd, conn.session, now);
      if (granted.empty()) return conn.socket.send_all("WAIT\n");
      std::string reply = "RUN";
      for (const std::size_t idx : granted) {
        reply += " " + std::to_string(idx);
      }
      return conn.socket.send_all(reply + "\n");
    }
    if (line.rfind("RESULT ", 0) == 0) {
      char* end = nullptr;
      const unsigned long long record_bytes =
          std::strtoull(line.c_str() + 7, &end, 10);
      unsigned long long series_bytes = 0;
      if (end != line.c_str() + 7 && *end == ' ') {
        const char* series_begin = end;
        series_bytes = std::strtoull(series_begin, &end, 10);
      }
      if (end == line.c_str() + 7 || *end != '\0' || record_bytes == 0 ||
          record_bytes > kMaxResultBytes || series_bytes > kMaxResultBytes) {
        (void)conn.socket.send_all("ERR bad RESULT length\n");
        return false;
      }
      conn.payload_record_bytes = static_cast<std::size_t>(record_bytes);
      conn.payload_remaining =
          static_cast<std::size_t>(record_bytes + series_bytes);
      conn.payload.clear();
      return true;
    }
    (void)conn.socket.send_all("ERR unknown message\n");
    return false;
  }

  /// Drain conn.inbuf: raw payload bytes first, then complete lines.
  bool process_buffer(int fd, Conn& conn, double now) {
    while (true) {
      if (conn.payload_remaining > 0) {
        const std::size_t take =
            std::min(conn.payload_remaining, conn.inbuf.size());
        conn.payload.append(conn.inbuf, 0, take);
        conn.inbuf.erase(0, take);
        conn.payload_remaining -= take;
        if (conn.payload_remaining > 0) return true;  // need more bytes
        if (!handle_result(fd, conn, now)) return false;
        continue;
      }
      const auto newline = conn.inbuf.find('\n');
      if (newline == std::string::npos) return true;
      const std::string line = conn.inbuf.substr(0, newline);
      conn.inbuf.erase(0, newline + 1);
      if (!handle_line(fd, conn, line, now)) return false;
    }
  }

  /// Answer one HTTP request on a status connection as soon as its request
  /// line is complete (headers are ignored; one request per connection).
  /// false → close the connection.
  bool serve_status(Conn& sc) {
    const auto newline = sc.inbuf.find('\n');
    if (newline == std::string::npos) {
      return sc.inbuf.size() <= 4096;  // keep waiting, bound the buffer
    }
    std::string line = sc.inbuf.substr(0, newline);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::istringstream request(line);
    std::string method;
    std::string path;
    request >> method >> path;
    std::string status_line = "HTTP/1.0 200 OK";
    std::string body;
    std::string content_type = "application/json";
    if (method == "GET" &&
        (path == "/status" || path.rfind("/status?", 0) == 0)) {
      body = status_json(scheduler->status(elapsed()));
    } else if (method == "GET" &&
               (path == "/metrics" || path.rfind("/metrics?", 0) == 0)) {
      body = metrics_text(scheduler->status(elapsed()));
      content_type = "text/plain; version=0.0.4";
    } else {
      status_line = "HTTP/1.0 404 Not Found";
      body = "{\"error\":\"unknown path; try GET /status or /metrics\"}";
    }
    const std::string response =
        status_line + "\r\nContent-Type: " + content_type + "\r\n" +
        "Content-Length: " + std::to_string(body.size()) +
        "\r\nConnection: close\r\n\r\n" + body;
    (void)sc.socket.send_all(response);
    return false;
  }
};

Coordinator::Coordinator(Options options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Coordinator::~Coordinator() = default;

std::uint16_t Coordinator::port() const { return impl_->listener.port(); }

std::uint16_t Coordinator::status_port() const {
  return impl_->status_listener.valid() ? impl_->status_listener.port() : 0;
}

SweepStatus Coordinator::status() const {
  return impl_->scheduler ? impl_->scheduler->status(impl_->elapsed())
                          : SweepStatus{};
}

std::vector<RunResult> Coordinator::execute(
    const SweepPlan& plan, std::span<const std::size_t> run_indices,
    const ExecuteOptions& options) {
  Impl& im = *impl_;
  CF_EXPECTS_MSG(!im.ran, "Coordinator::execute may only be called once");
  CF_EXPECTS_MSG(!options.keep_reports,
                 "a coordinator keeps no reports: a run record carries none");
  im.ran = true;
  // Every exit, an exception from on_result included, closes every socket:
  // no worker waits out its reply timeout on a dead loop.
  struct CloseOnExit {
    Impl& im;
    ~CloseOnExit() {
      im.listener.close();
      im.status_listener.close();
      im.conns.clear();
    }
  } const close_on_exit{im};

  im.on_result = options.on_result;
  im.start(plan, run_indices, options.series_every);
  LeaseScheduler& scheduler = *im.scheduler;
  std::optional<double> drain_deadline;
  while (true) {
    const double now = im.elapsed();
    if (scheduler.done() && !drain_deadline) {
      drain_deadline = now + im.options.drain_seconds;
    }
    // With the status endpoint enabled the early exit is off: scrapers must
    // be able to observe the drained terminal state for the full window.
    if (drain_deadline &&
        (now >= *drain_deadline ||
         (!im.status_listener.valid() && im.conns.empty() &&
          scheduler.status(now).workers_seen > 0))) {
      break;
    }
    scheduler.expire(now);

    // Sleep until traffic, the nearest lease deadline, or the drain
    // deadline — whichever comes first.
    std::optional<double> wake = scheduler.next_deadline();
    if (drain_deadline && (!wake || *drain_deadline < *wake)) {
      wake = drain_deadline;
    }
    const int timeout_ms =
        wake ? static_cast<int>(
                   std::clamp((*wake - now) * 1000.0 + 1.0, 0.0, 60000.0))
             : -1;

    // An invalid status listener has descriptor -1, which poll ignores.
    std::vector<pollfd> fds{{im.listener.fd(), POLLIN, 0},
                            {im.status_listener.fd(), POLLIN, 0}};
    for (const auto& [fd, conn] : im.conns) fds.push_back({fd, POLLIN, 0});
    const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      CF_LOG_ERROR("coordinator: poll failed; shutting down");
      break;
    }

    for (std::size_t k = 0; k < 2; ++k) {
      if ((fds[k].revents & POLLIN) == 0) continue;
      util::Socket accepted =
          (k == 0 ? im.listener : im.status_listener).accept();
      if (!accepted.valid()) continue;
      const int fd = accepted.fd();
      Impl::Conn conn;
      conn.socket = std::move(accepted);
      conn.status_client = k == 1;
      im.conns.emplace(fd, std::move(conn));
    }

    for (std::size_t k = 2; k < fds.size(); ++k) {
      if (fds[k].revents == 0) continue;
      const int fd = fds[k].fd;
      const auto it = im.conns.find(fd);
      if (it == im.conns.end()) continue;
      Impl::Conn& conn = it->second;
      const util::IoStatus status = conn.socket.recv_some(conn.inbuf, 0.0);
      if (status == util::IoStatus::kTimeout) continue;  // spurious wakeup
      if (conn.status_client) {
        if (status != util::IoStatus::kOk || !im.serve_status(conn)) {
          im.conns.erase(fd);
        }
        continue;
      }
      // Any traffic from a worker proves it alive: refresh its leases. A
      // vanished worker's leases orphan for the resume grace.
      const double heard = im.elapsed();
      if (status == util::IoStatus::kOk) scheduler.heard_from(fd, heard);
      if (status != util::IoStatus::kOk ||
          !im.process_buffer(fd, conn, heard)) {
        scheduler.leave(fd, heard);
        im.conns.erase(fd);
      }
    }
  }

  CF_ENSURES_MSG(scheduler.done(),
                 "coordinator exited with incomplete results");
  std::vector<RunResult> results;
  results.reserve(run_indices.size());
  for (const std::size_t idx : run_indices) {
    results.push_back(std::move(im.results[idx]));
  }
  return results;
}

}  // namespace creditflow::scenario
