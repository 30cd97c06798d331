#include "scenario/lease_scheduler.hpp"

#include <algorithm>
#include <cstdint>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace creditflow::scenario {

LeaseScheduler::LeaseScheduler(std::size_t runs,
                               double lease_timeout_seconds,
                               std::size_t batch_max)
    : lease_timeout_(lease_timeout_seconds),
      resume_grace_(std::min(kResumeGraceSeconds, lease_timeout_seconds)),
      batch_max_(batch_max),
      complete_(runs, 0) {
  CF_EXPECTS_MSG(lease_timeout_seconds > 0.0,
                 "lease timeout must be positive");
  CF_EXPECTS_MSG(batch_max >= 1, "lease batch size must be at least 1");
  for (std::size_t run = 0; run < runs; ++run) pending_.push_back(run);
  totals_.plan_runs = runs;
}

double LeaseScheduler::throughput(const Worker& worker, double now) {
  const double connected = now - worker.joined;
  return connected > 0.0 ? static_cast<double>(worker.completed) / connected
                         : 0.0;
}

void LeaseScheduler::recall(std::size_t run) {
  CF_EXPECTS(run < complete_.size() && complete_[run] == 0);
  std::erase(pending_, run);
  complete_[run] = 1;
  ++totals_.completed;
  ++totals_.cache_hits;
}

void LeaseScheduler::join(int worker, double now) {
  workers_[worker] = Worker{0, now, now};
  ++totals_.workers_seen;
}

void LeaseScheduler::heard_from(int worker, double now) {
  for (auto& [run, lease] : leases_) {
    if (lease.owner == worker) lease.deadline = now + lease_timeout_;
  }
  const auto it = workers_.find(worker);
  if (it != workers_.end()) it->second.last_heard = now;
}

void LeaseScheduler::leave(int worker, double now) {
  for (auto& [run, lease] : leases_) {
    if (lease.owner != worker) continue;
    CF_LOG_INFO("coordinator: orphaning lease on run "
                << run << " (worker disconnected; RESUME window open)");
    lease.owner = kOrphan;
    lease.deadline = std::min(lease.deadline, now + resume_grace_);
  }
  workers_.erase(worker);
}

std::vector<std::size_t> LeaseScheduler::grant(int worker,
                                               const std::string& session,
                                               double now) {
  const double window = std::clamp(lease_timeout_ / 4.0, 0.25, 2.0);
  const auto want = std::clamp<std::size_t>(
      static_cast<std::size_t>(throughput(workers_.at(worker), now) * window),
      1, batch_max_);
  std::vector<std::size_t> runs;
  while (runs.size() < want && !pending_.empty()) {
    const std::size_t run = pending_.front();
    pending_.pop_front();
    // A requeued run can complete before it is re-granted (its original
    // worker delivered late); no one re-executes it.
    if (complete_[run] != 0) continue;
    leases_[run] = Lease{worker, session, now + lease_timeout_, now};
    runs.push_back(run);
  }
  return runs;
}

std::vector<std::size_t> LeaseScheduler::resume(int worker,
                                                const std::string& token,
                                                double now) {
  std::vector<std::size_t> runs;
  for (auto& [run, lease] : leases_) {
    if (lease.owner != kOrphan || lease.session != token) continue;
    lease.owner = worker;
    lease.deadline = now + lease_timeout_;
    runs.push_back(run);
  }
  if (!runs.empty()) {
    totals_.leases_resumed += runs.size();
    CF_LOG_INFO("coordinator: session " << token << " resumed "
                                        << runs.size() << " lease(s)");
  }
  return runs;
}

bool LeaseScheduler::complete(std::size_t run, int worker, double now) {
  CF_EXPECTS(run < complete_.size());
  if (complete_[run] != 0) {
    ++totals_.duplicates;
    return false;
  }
  const auto lease = leases_.find(run);
  if (lease != leases_.end()) {
    const double wall_ms = (now - lease->second.granted) * 1000.0;
    totals_.lease_wall_ms.add(
        wall_ms > 0.0 ? static_cast<std::uint64_t>(wall_ms) : 0);
    leases_.erase(lease);
  }
  ++workers_.at(worker).completed;
  complete_[run] = 1;
  ++totals_.completed;
  ++totals_.executed;
  return true;
}

std::vector<std::size_t> LeaseScheduler::expire(double now) {
  std::vector<std::size_t> runs;
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (now < it->second.deadline) {
      ++it;
      continue;
    }
    CF_LOG_WARN("coordinator: lease on run "
                << it->first
                << (it->second.owner == kOrphan
                        ? " lost its worker; requeueing"
                        : " timed out; requeueing"));
    pending_.push_front(it->first);
    ++totals_.requeued;
    runs.push_back(it->first);
    it = leases_.erase(it);
  }
  return runs;
}

std::optional<double> LeaseScheduler::next_deadline() const {
  std::optional<double> nearest;
  for (const auto& [run, lease] : leases_) {
    if (!nearest || lease.deadline < *nearest) nearest = lease.deadline;
  }
  return nearest;
}

SweepStatus LeaseScheduler::status(double now) const {
  SweepStatus s = totals_;
  s.pending = pending_.size();
  s.leased = leases_.size();
  s.done = done();
  s.elapsed_seconds = now;
  // Cache hits resolve before serving starts; only fresh completions
  // measure the fleet's pace.
  if (s.done) {
    s.eta_seconds = 0.0;
  } else if (s.executed > 0 && now > 0.0) {
    s.eta_seconds = static_cast<double>(s.plan_runs - s.completed) * now /
                    static_cast<double>(s.executed);
  }
  for (const auto& [id, worker] : workers_) {
    s.workers.push_back(SweepStatus::Worker{
        id, worker.completed, 0, throughput(worker, now),
        now - worker.last_heard});
  }
  for (const auto& [run, lease] : leases_) {
    if (lease.owner == kOrphan) {
      ++s.orphaned_leases;
      continue;
    }
    for (SweepStatus::Worker& w : s.workers) {
      if (w.id == lease.owner) ++w.active_leases;
    }
  }
  return s;
}

}  // namespace creditflow::scenario
