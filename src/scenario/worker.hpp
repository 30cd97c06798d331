// CreditFlow scenario engine: the sweep worker — the client half of the
// work-stealing coordinator protocol (coordinator.hpp documents the wire
// format, v3).
//
// A worker process runs `sessions` parallel lease loops, each over its own
// TCP connection: HELLO → receive the plan (spec + sweep text, from which
// the worker rebuilds the coordinator's exact SweepPlan) → repeatedly NEXT
// for a lease batch, execute the granted runs through a
// scenario::Executor, and stream each finished run record (plus its series
// CSV when the coordinator asked for one) back. A background heartbeat per
// session (a quarter of the lease timeout) keeps leases alive across runs.
//
// Fault tolerance: a session that loses its connection does not abandon
// its work — it reconnects with capped exponential backoff (seeded
// jitter), replays the handshake, verifies it is still the same plan, and
// sends RESUME <token> to reclaim the leases (and redeliver any result
// computed while disconnected) that the coordinator held in its orphan
// grace window. A restarted coordinator knows no token: it answers
// RESUMED 0, and the session delivers what it finished and carries on
// under its fresh token, with the lease timeout and series cadence of the
// new PLAN (a result held from another cadence is dropped, and the new
// coordinator leases that run again unless its store holds it). Only
// when the coordinator stays gone past the 30 s reconnect window does the
// session report failure; the coordinator's lease timeout then requeues
// its runs for the surviving fleet.
//
// Workers carry no sweep-specific state of their own — any machine with
// the binary joins a sweep knowing only HOST:PORT, and the coordinator's
// RunKey validation guarantees a worker built from mismatched code cannot
// contribute corrupt results.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "scenario/executor.hpp"

namespace creditflow::scenario {

/// Knobs for one worker process.
struct WorkerOptions {
  /// Parallel lease loops (connections); 0 → hardware concurrency. Each
  /// session executes one run at a time, so this is the worker's degree of
  /// parallelism.
  std::size_t sessions = 1;

  /// How runs are computed; nullptr → a shared in-process
  /// ThreadPoolExecutor (each session executes its leased runs inline,
  /// one at a time). Not owned; must outlive run_worker.
  Executor* executor = nullptr;

  /// Called after each run this worker computed and the coordinator
  /// accepted (serialized across sessions; progress reporting only).
  std::function<void(const RunResult&)> on_result;
};

/// What a worker process did, aggregated over its sessions.
struct WorkerReport {
  std::size_t runs_executed = 0;   ///< completions the coordinator recorded
  std::size_t duplicates = 0;      ///< completions it already had (DUP)
  std::size_t sessions_completed = 0;  ///< sessions that read DONE
  /// Retry/backoff telemetry, aggregated over sessions.
  std::size_t connect_retries = 0;  ///< failed connect attempts retried
  std::size_t wait_retries = 0;     ///< WAIT replies slept through
  std::size_t reconnects = 0;       ///< connections re-established mid-sweep
  std::size_t leases_resumed = 0;   ///< leases reclaimed via RESUME
  /// True when the sweep finished while this worker was attached (at least
  /// one session read DONE). False means the coordinator vanished first.
  bool completed = false;
  /// First hard session error (handshake failure, protocol violation,
  /// dead coordinator past the reconnect window); empty when everything
  /// ended orderly.
  std::string error;
};

/// Run a worker against the coordinator at host:port until the sweep
/// completes (DONE) or the coordinator stays unreachable past the
/// reconnect window. Blocks; spawns options.sessions internal threads.
[[nodiscard]] WorkerReport run_worker(const std::string& host,
                                      std::uint16_t port,
                                      const WorkerOptions& options = {});

}  // namespace creditflow::scenario
