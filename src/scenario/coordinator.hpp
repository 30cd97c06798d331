// CreditFlow scenario engine: the fault-tolerant work-stealing sweep
// coordinator.
//
// A Coordinator is an Executor (executor.hpp): SweepRunner hands it the
// runs its store cannot answer, and it leases them dynamically to any
// number of remote workers over a minimal line-based TCP protocol,
// replacing static `--shard I/N` partitioning: a slow or dead worker's
// outstanding leases flow back into the queue (heartbeat + lease timeout),
// so fast machines steal the stragglers' work and the sweep finishes at
// the speed of the aggregate fleet, not its slowest member. The runner
// stores each run, writes its series file and reports progress, as it does
// for a local sweep; the coordinator sees no store.
//
// Determinism contract — identical to shard-and-merge: a run is a pure
// function of the plan entry, results are merged by run_index, and
// completed runs travel as the PR-3 run-record interchange (shortest
// round-trip doubles), so the coordinator's aggregate CSV/JSON and per-run
// records are byte-identical to a single-process ThreadPoolExecutor run of
// the same spec — regardless of worker count, scheduling, disconnects,
// lease reassignment, duplicate deliveries, or coordinator restarts. The
// first completion of a RunKey wins; every later delivery of that key is
// acknowledged and discarded.
//
// Fault tolerance (protocol v2):
//
//   * Crash recovery through the run store — the runner stores each run
//     before its worker hears OK, so the store is the only state a crash
//     leaves behind. A coordinator killed mid-sweep and restarted the same
//     way on the same store is asked only for the runs the store lacks. A
//     surviving worker's RESUME gets RESUMED 0 from it; the worker delivers
//     what it finished (first completion wins) and carries on, so the
//     crash costs at most one re-run per surviving worker session. Output
//     is byte-identical to an uninterrupted sweep.
//   * RESUME handshake — each session is issued a token in PLAN; a worker
//     whose TCP connection drops reconnects and sends RESUME <token> to
//     reclaim its outstanding leases (and deliver results computed while
//     disconnected) instead of forfeiting them. A disconnected session's
//     leases are therefore held for a 2 s resume grace (capped at the
//     lease timeout) before being requeued.
//   * Batched adaptive leases — NEXT grants up to Options::lease_batch_max
//     run indices at once, sized per worker from its measured throughput:
//     fast workers amortize round-trips over bigger batches, stragglers
//     shrink toward one run so their failure forfeits little.
//
// The lease policy is LeaseScheduler (lease_scheduler.hpp), which does no
// I/O; execute() is the poll loop that feeds it protocol events and writes
// the replies around it.
//
// Wire protocol v3 (newline-delimited ASCII; payloads length-prefixed):
//
//   worker → HELLO creditflow-sweep-3
//   coord  → PLAN <lease_timeout_ms> <spec_bytes> <sweep_bytes>
//                 <series_every> <session_token>
//            followed by exactly spec_bytes + sweep_bytes of raw text
//            (ScenarioSpec::serialize ‖ SweepSpec::serialize); the worker
//            rebuilds the identical SweepPlan from it. series_every > 0
//            asks workers to collect per-run series at that cadence.
//   worker → RESUME <session_token>   reclaim a previous session's leases
//   coord  → RESUMED <n> [<idx>...]   the reclaimed run indices (0 → the
//            token is unknown/expired; the worker simply starts fresh)
//   worker → NEXT                     request leases
//   coord  → RUN <idx> [<idx>...]     lease batch granted (any traffic
//          |                          from the session refreshes it)
//          | WAIT                     nothing grantable now — back off
//          | DONE                     sweep complete — disconnect
//   worker → PING                     heartbeat (keeps leases alive)
//   coord  → PONG
//   worker → RESULT <nbytes> <series_bytes>
//            followed by nbytes of run-record JSONL, then series_bytes of
//            per-run series CSV (0 when none was collected)
//   coord  → OK                       first completion — recorded
//          | DUP                      already have it — discarded
//   coord  → ERR <message>            protocol violation; connection closed
//
// The coordinator validates every delivered record's RunKey against its
// own plan.key(run_index), so a worker built from a different binary or
// handed a different spec cannot corrupt the result set — its delivery is
// rejected and the connection dropped.
//
// Runs of the plan that execute() was not asked for count as complete
// from the start (cache hits in status()): workers never lease them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "scenario/executor.hpp"
#include "scenario/lease_scheduler.hpp"
#include "scenario/plan.hpp"

namespace creditflow::scenario {

/// The protocol version token exchanged in HELLO; bumped whenever the wire
/// format changes incompatibly. v2: RESUME, batched RUN, series payloads.
/// v3: a NaN number in a run record is `null`, not `nan`.
inline constexpr const char* kSweepProtocolVersion = "creditflow-sweep-3";

/// The lease timeout announced in PLAN: `seconds` in milliseconds, rounded
/// to nearest. nullopt when that is below 1 ms, at or above 2^63 ms, or not
/// a number: no worker accepts a PLAN header without a positive lease.
[[nodiscard]] std::optional<long long> lease_timeout_ms(double seconds);

/// Serves a sweep's runs to socket workers and merges their results.
class Coordinator final : public Executor {
 public:
  struct Options {
    /// Bind address. The loopback default keeps a laptop sweep private;
    /// bind "0.0.0.0" to accept workers from other machines.
    std::string host = "127.0.0.1";
    /// Bind port; 0 picks a free one (read it back via port()).
    std::uint16_t port = 0;

    /// A lease not refreshed by any traffic from its worker within this
    /// window is revoked and re-queued for the next NEXT request. Workers
    /// heartbeat at a quarter of this (announced in PLAN), so only a
    /// dead, wedged, or partitioned worker ever times out. Must pass
    /// lease_timeout_ms.
    double lease_timeout_seconds = 30.0;

    /// After the last run completes, keep answering stragglers (NEXT →
    /// DONE, RESULT → DUP) for at most this long before closing up.
    double drain_seconds = 1.0;

    /// Ceiling on run indices granted per NEXT. The actual batch is sized
    /// per worker from its measured throughput (fresh and slow workers
    /// get 1); 1 disables batching entirely.
    std::size_t lease_batch_max = 4;

    /// Live status endpoint: when >= 0, bind a second listener on the same
    /// host (0 picks a free port — read it back via status_port()) that
    /// answers `GET /status` with a JSON progress snapshot from the serving
    /// loop itself — no extra thread, no locks. -1 disables. With the
    /// endpoint enabled the coordinator always drains the full
    /// drain_seconds window (no early exit when the last worker leaves), so
    /// a final scrape can still observe completed == plan_runs.
    int status_port = -1;
  };

  /// Binds and listens immediately (so workers can connect before
  /// execute()), but serves nothing until execute() is called. Throws
  /// util::PreconditionError on a lease timeout no worker can use (before
  /// binding), and util::SocketError when the address cannot be bound.
  explicit Coordinator(Options options);
  ~Coordinator() override;

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// The bound port.
  [[nodiscard]] std::uint16_t port() const;
  /// The bound status-endpoint port; 0 when the endpoint is disabled.
  [[nodiscard]] std::uint16_t status_port() const;

  /// Serve `run_indices` of `plan` until each has exactly one result, then
  /// drain and return them in request order. Every first completion goes
  /// to options.on_result(result, series_csv) before its worker hears OK;
  /// options.series_every is the cadence PLAN asks workers to sample at,
  /// and options.jobs does not apply. Throws util::PreconditionError when
  /// options.keep_reports is set (a run record carries no report).
  /// Callable once.
  [[nodiscard]] std::vector<RunResult> execute(
      const SweepPlan& plan, std::span<const std::size_t> run_indices,
      const ExecuteOptions& options) override;

  /// The sweep's progress and counters now: the snapshot /status serves;
  /// an empty plan before execute(). Not synchronized with execute(); call
  /// it before execute() or after it returns.
  [[nodiscard]] SweepStatus status() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace creditflow::scenario
