// Tests for LeaseScheduler, the sweep coordinator's lease policy, on
// virtual time. Every event takes `now` explicitly, so lease timeouts, the
// resume grace and batch sizing are checked at their exact deadlines with
// no sockets and no sleeps. test_coordinator.cpp keeps the socket half:
// a connection closed holding a lease, and a heartbeat outliving a lease.
#include "scenario/lease_scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/assert.hpp"

namespace creditflow::scenario {
namespace {

using Runs = std::vector<std::size_t>;

TEST(LeaseScheduler, ExpiredLeaseIsStolenAndTheLateTwinIsADuplicate) {
  LeaseScheduler s(4, /*lease_timeout_seconds=*/1.0, /*batch_max=*/1);
  s.join(1, 0.0);
  s.join(2, 0.0);
  EXPECT_EQ(s.grant(1, "laggard", 0.0), Runs{0});
  EXPECT_EQ(s.grant(2, "thief", 0.0), Runs{1});

  // The thief keeps talking; the laggard goes silent mid-run.
  s.heard_from(2, 0.9);
  EXPECT_TRUE(s.expire(0.999).empty());
  EXPECT_EQ(s.expire(1.0), Runs{0});

  // The revoked run went to the queue head: it is the thief's next grant,
  // ahead of runs 2 and 3.
  EXPECT_TRUE(s.complete(1, 2, 1.0));
  EXPECT_EQ(s.grant(2, "thief", 1.0), Runs{0});
  EXPECT_TRUE(s.complete(0, 2, 1.5));

  // The laggard finally delivers: the first completion already won.
  EXPECT_FALSE(s.complete(0, 1, 2.0));
  const SweepStatus status = s.status(2.0);
  EXPECT_EQ(status.requeued, 1u);
  EXPECT_EQ(status.duplicates, 1u);
  EXPECT_EQ(status.executed, 2u);
  EXPECT_EQ(status.completed, 2u);
  EXPECT_EQ(status.leased, 0u);
}

TEST(LeaseScheduler, TrafficRefreshesALease) {
  LeaseScheduler s(2, 1.0, 1);
  s.join(1, 0.0);
  EXPECT_EQ(s.grant(1, "a", 0.0), Runs{0});
  EXPECT_EQ(s.next_deadline(), 1.0);

  // Heartbeats every 0.5 s keep a 1 s lease alive indefinitely.
  double now = 0.0;
  for (int beat = 0; beat < 10; ++beat) {
    now += 0.5;
    EXPECT_TRUE(s.expire(now).empty()) << beat;
    s.heard_from(1, now);
  }
  EXPECT_EQ(s.next_deadline(), now + 1.0);

  // Silence for a full lease timeout revokes it.
  EXPECT_TRUE(s.expire(now + 0.999).empty());
  EXPECT_EQ(s.expire(now + 1.0), Runs{0});
  EXPECT_FALSE(s.next_deadline().has_value());
}

TEST(LeaseScheduler, LeaveOrphansTheLeaseUntilTheGraceEnds) {
  LeaseScheduler s(3, 30.0, 1);
  s.join(1, 0.0);
  EXPECT_EQ(s.grant(1, "a", 0.0), Runs{0});
  s.leave(1, 1.0);

  SweepStatus status = s.status(1.0);
  EXPECT_EQ(status.leased, 1u);
  EXPECT_EQ(status.orphaned_leases, 1u);
  EXPECT_TRUE(status.workers.empty());

  // The 2 s resume grace, not the 30 s lease timeout, bounds the wait.
  EXPECT_TRUE(s.expire(2.999).empty());
  EXPECT_EQ(s.expire(3.0), Runs{0});
  status = s.status(3.0);
  EXPECT_EQ(status.requeued, 1u);
  EXPECT_EQ(status.orphaned_leases, 0u);

  // The requeued run heads the queue for the next worker.
  s.join(2, 3.0);
  EXPECT_EQ(s.grant(2, "b", 3.0), Runs{0});
}

TEST(LeaseScheduler, GraceNeverExtendsALeasePastItsDeadline) {
  // A 1 s lease caps the 2 s grace, and a leave half-way through the
  // lease keeps the original deadline.
  LeaseScheduler s(2, 1.0, 1);
  s.join(1, 0.0);
  EXPECT_EQ(s.grant(1, "a", 0.0), Runs{0});
  s.leave(1, 0.5);
  EXPECT_EQ(s.next_deadline(), 1.0);
  EXPECT_EQ(s.expire(1.0), Runs{0});
}

TEST(LeaseScheduler, ResumeReclaimsOnlyItsOwnSessionsOrphans) {
  LeaseScheduler s(4, 30.0, 1);
  s.join(1, 0.0);
  s.join(2, 0.0);
  EXPECT_EQ(s.grant(1, "alpha", 0.0), Runs{0});
  EXPECT_EQ(s.grant(2, "beta", 0.0), Runs{1});
  EXPECT_EQ(s.grant(1, "alpha", 0.0), Runs{2});
  s.leave(1, 0.0);
  s.leave(2, 0.0);

  // alpha comes back on a fresh connection and resumes its token.
  s.join(3, 1.0);
  EXPECT_EQ(s.resume(3, "alpha", 1.0), (Runs{0, 2}));

  // beta's orphan still expires at its grace; alpha's reclaimed leases
  // are live again and last a full lease timeout from the resume.
  EXPECT_EQ(s.expire(2.0), Runs{1});
  EXPECT_TRUE(s.expire(30.0).empty());
  EXPECT_EQ(s.next_deadline(), 31.0);

  const SweepStatus status = s.status(30.0);
  EXPECT_EQ(status.leases_resumed, 2u);
  EXPECT_EQ(status.requeued, 1u);
  EXPECT_EQ(status.orphaned_leases, 0u);
  ASSERT_EQ(status.workers.size(), 1u);
  EXPECT_EQ(status.workers[0].id, 3);
  EXPECT_EQ(status.workers[0].active_leases, 2u);
}

TEST(LeaseScheduler, UnknownTokenReclaimsNothing) {
  LeaseScheduler s(3, 30.0, 1);
  s.join(1, 0.0);
  EXPECT_EQ(s.grant(1, "alpha", 0.0), Runs{0});
  s.leave(1, 0.0);
  s.join(2, 0.0);
  EXPECT_EQ(s.grant(2, "beta", 0.0), Runs{1});

  s.join(3, 0.0);
  EXPECT_TRUE(s.resume(3, "0123456789abcdef", 0.0).empty());
  // A connected session's leases are not orphans: its token takes nothing.
  EXPECT_TRUE(s.resume(3, "beta", 0.0).empty());

  const SweepStatus status = s.status(0.0);
  EXPECT_EQ(status.leases_resumed, 0u);
  EXPECT_EQ(status.orphaned_leases, 1u);
}

TEST(LeaseScheduler, BatchGrowsWithMeasuredThroughput) {
  // 30 s lease → a 2 s batch window: a worker is granted about the runs it
  // completes in 2 s, between 1 and batch_max.
  LeaseScheduler s(16, 30.0, 4);
  s.join(1, 0.0);
  s.join(2, 0.0);
  s.join(3, 0.0);
  // No history yet: one run each.
  EXPECT_EQ(s.grant(1, "fast", 0.0), Runs{0});
  EXPECT_EQ(s.grant(2, "steady", 0.0), Runs{1});
  EXPECT_EQ(s.grant(3, "slow", 0.0), Runs{2});

  // 10 runs/s → 20 per window, capped at batch_max.
  EXPECT_TRUE(s.complete(0, 1, 0.1));
  EXPECT_EQ(s.grant(1, "fast", 0.1), (Runs{3, 4, 5, 6}));
  // 1 run/s → 2 per window.
  EXPECT_TRUE(s.complete(1, 2, 1.0));
  EXPECT_EQ(s.grant(2, "steady", 1.0), (Runs{7, 8}));
  // 0.25 runs/s → still one.
  EXPECT_TRUE(s.complete(2, 3, 4.0));
  EXPECT_EQ(s.grant(3, "slow", 4.0), Runs{9});
}

TEST(LeaseScheduler, CompleteRunsAreNeverGranted) {
  LeaseScheduler s(4, 1.0, 4);
  s.recall(1);
  s.recall(3);
  SweepStatus status = s.status(0.0);
  EXPECT_EQ(status.cache_hits, 2u);
  EXPECT_EQ(status.completed, 2u);
  EXPECT_EQ(status.pending, 2u);

  s.join(1, 0.0);
  EXPECT_EQ(s.grant(1, "slow", 0.0), Runs{0});
  EXPECT_EQ(s.expire(1.0), Runs{0});
  // The revoked worker delivers before anyone re-leases the run: it still
  // counts, and the queued copy is skipped.
  EXPECT_TRUE(s.complete(0, 1, 1.5));

  s.join(2, 2.0);
  EXPECT_EQ(s.grant(2, "next", 2.0), Runs{2});
  EXPECT_TRUE(s.grant(2, "next", 2.0).empty());  // nothing grantable
  EXPECT_FALSE(s.done());
  EXPECT_TRUE(s.complete(2, 2, 3.0));
  EXPECT_TRUE(s.done());
  status = s.status(3.0);
  EXPECT_EQ(status.executed, 2u);
  EXPECT_EQ(status.duplicates, 0u);
}

TEST(LeaseScheduler, SnapshotReportsProgressEtaAndWorkers) {
  LeaseScheduler s(10, 30.0, 1);
  s.recall(9);
  SweepStatus status = s.status(0.0);
  EXPECT_EQ(status.plan_runs, 10u);
  EXPECT_EQ(status.completed, 1u);
  EXPECT_EQ(status.pending, 9u);
  EXPECT_FALSE(status.done);
  EXPECT_FALSE(status.eta_seconds.has_value());  // no fresh completion yet
  EXPECT_TRUE(status.workers.empty());

  s.join(4, 0.0);
  s.join(7, 1.0);
  EXPECT_EQ(s.grant(4, "a", 0.0), Runs{0});
  EXPECT_EQ(s.grant(7, "b", 1.0), Runs{1});
  s.heard_from(4, 2.0);
  EXPECT_TRUE(s.complete(0, 4, 2.0));
  s.heard_from(7, 3.0);

  status = s.status(4.0);
  EXPECT_EQ(status.completed, 2u);
  EXPECT_EQ(status.executed, 1u);
  EXPECT_EQ(status.cache_hits, 1u);
  EXPECT_EQ(status.pending, 7u);
  EXPECT_EQ(status.leased, 1u);
  EXPECT_EQ(status.workers_seen, 2u);
  EXPECT_DOUBLE_EQ(status.elapsed_seconds, 4.0);
  // 8 runs left at one fresh completion per 4 s.
  ASSERT_TRUE(status.eta_seconds.has_value());
  EXPECT_DOUBLE_EQ(*status.eta_seconds, 32.0);
  EXPECT_EQ(status.lease_wall_ms.count(), 1u);
  EXPECT_EQ(status.lease_wall_ms.max(), 2000u);
  ASSERT_EQ(status.workers.size(), 2u);
  EXPECT_EQ(status.workers[0].id, 4);
  EXPECT_EQ(status.workers[0].completed, 1u);
  EXPECT_EQ(status.workers[0].active_leases, 0u);
  EXPECT_DOUBLE_EQ(status.workers[0].throughput_runs_per_s, 0.25);
  EXPECT_DOUBLE_EQ(status.workers[0].last_heartbeat_age_seconds, 2.0);
  EXPECT_EQ(status.workers[1].id, 7);
  EXPECT_EQ(status.workers[1].completed, 0u);
  EXPECT_EQ(status.workers[1].active_leases, 1u);
  EXPECT_DOUBLE_EQ(status.workers[1].throughput_runs_per_s, 0.0);
  EXPECT_DOUBLE_EQ(status.workers[1].last_heartbeat_age_seconds, 1.0);

  s.leave(7, 5.0);
  status = s.status(5.0);
  EXPECT_EQ(status.orphaned_leases, 1u);
  EXPECT_EQ(status.workers.size(), 1u);
  EXPECT_EQ(status.workers_seen, 2u);

  LeaseScheduler warm(2, 30.0, 1);
  warm.recall(0);
  warm.recall(1);
  status = warm.status(1.0);
  EXPECT_TRUE(status.done);
  EXPECT_EQ(status.eta_seconds, 0.0);
}

TEST(LeaseScheduler, RejectsANonPositiveLeaseOrAnEmptyBatch) {
  EXPECT_THROW(LeaseScheduler(1, 0.0, 1), util::PreconditionError);
  EXPECT_THROW(LeaseScheduler(1, 1.0, 0), util::PreconditionError);
}

}  // namespace
}  // namespace creditflow::scenario
