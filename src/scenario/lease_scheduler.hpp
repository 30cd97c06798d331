// CreditFlow scenario engine: the sweep coordinator's lease policy as a
// pure state machine.
//
// LeaseScheduler owns the scheduling state behind the work-stealing
// coordinator's protocol (coordinator.hpp): the run queue, the leases, the
// completed runs, the connected workers and every counter /status
// reports. Each event takes the current time — seconds since the
// scheduler was created — as an argument; it reads no clock and does no
// I/O, so tests drive the policy on virtual time.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace creditflow::scenario {

/// One progress snapshot of a sweep: what /status and /metrics render.
struct SweepStatus {
  struct Worker {
    int id = -1;  ///< the coordinator's id for it (its descriptor)
    std::size_t completed = 0;
    std::size_t active_leases = 0;
    double throughput_runs_per_s = 0.0;
    double last_heartbeat_age_seconds = 0.0;  ///< since its last traffic
  };

  std::size_t plan_runs = 0;
  std::size_t completed = 0;        ///< executed + cache_hits
  std::size_t pending = 0;          ///< queued, not leased
  std::size_t leased = 0;           ///< outstanding leases, orphans included
  std::size_t orphaned_leases = 0;  ///< leases whose worker left
  std::size_t executed = 0;         ///< first completions by workers
  std::size_t cache_hits = 0;       ///< runs answered by the run store
  std::size_t requeued = 0;         ///< leases revoked and requeued
  std::size_t duplicates = 0;       ///< deliveries of complete runs
  std::size_t workers_seen = 0;
  std::size_t leases_resumed = 0;
  bool done = false;
  double elapsed_seconds = 0.0;
  /// Remaining runs at the fresh-completion pace; nullopt before the first.
  std::optional<double> eta_seconds;
  util::Log2Histogram lease_wall_ms;  ///< grant → first completion
  std::vector<Worker> workers;        ///< connected, by id
};

class LeaseScheduler {
 public:
  /// How long a departed worker's leases wait for its RESUME; capped at
  /// the lease timeout, and never past a lease's own deadline.
  static constexpr double kResumeGraceSeconds = 2.0;

  /// Every run starts queued in index order. Requires
  /// lease_timeout_seconds > 0 and batch_max >= 1.
  LeaseScheduler(std::size_t runs, double lease_timeout_seconds,
                 std::size_t batch_max);

  /// Seeding, before the first grant: `run` is not the coordinator's to
  /// lease (the run store answered it).
  void recall(std::size_t run);

  /// `worker` (an id unique among connected workers) said HELLO.
  void join(int worker, double now);
  /// Any traffic from `worker` proves it alive: refresh its leases.
  void heard_from(int worker, double now);
  /// `worker` disconnected: orphan its leases for the resume grace.
  void leave(int worker, double now);
  /// Lease `worker`, for `session`, about the runs it completes in a
  /// quarter of the lease timeout (0.25–2 s, well inside a lease), 1 to
  /// batch_max; empty → nothing grantable.
  [[nodiscard]] std::vector<std::size_t> grant(int worker,
                                               const std::string& session,
                                               double now);
  /// Hand session `token`'s orphaned leases to `worker`; returns their
  /// runs (empty for an unknown or live session).
  [[nodiscard]] std::vector<std::size_t> resume(int worker,
                                                const std::string& token,
                                                double now);
  /// Joined `worker` delivered `run` (< plan size): true for the first
  /// completion, false for a duplicate.
  [[nodiscard]] bool complete(std::size_t run, int worker, double now);
  /// Revoke every lease past its deadline and requeue its run at the
  /// queue head; returns the runs in index order.
  std::vector<std::size_t> expire(double now);

  [[nodiscard]] bool done() const {
    return totals_.completed == totals_.plan_runs;
  }
  /// The nearest lease deadline; nullopt when nothing is leased.
  [[nodiscard]] std::optional<double> next_deadline() const;
  [[nodiscard]] SweepStatus status(double now) const;

 private:
  static constexpr int kOrphan = -1;  ///< Lease::owner of an orphan

  struct Lease {
    int owner = kOrphan;
    std::string session;
    double deadline = 0.0;
    double granted = 0.0;
  };
  struct Worker {
    std::size_t completed = 0;
    double joined = 0.0;
    double last_heard = 0.0;
  };

  [[nodiscard]] static double throughput(const Worker& worker, double now);

  double lease_timeout_;
  double resume_grace_;
  std::size_t batch_max_;
  std::deque<std::size_t> pending_;      ///< grantable runs, head first
  std::map<std::size_t, Lease> leases_;  ///< outstanding, by run
  std::vector<char> complete_;           ///< by run
  std::map<int, Worker> workers_;        ///< connected, by id
  /// The counters and lease_wall_ms; status() derives the rest.
  SweepStatus totals_;
};

}  // namespace creditflow::scenario
