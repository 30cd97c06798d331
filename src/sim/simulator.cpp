#include "sim/simulator.hpp"

#include <memory>

#include "util/assert.hpp"
#include "util/trace.hpp"

namespace creditflow::sim {

void Simulator::schedule_at(double t, EventQueue::Callback cb) {
  CF_EXPECTS_MSG(t >= now_, "cannot schedule into the past");
  queue_.schedule(t, std::move(cb));
}

void Simulator::schedule_after(double delay, EventQueue::Callback cb) {
  CF_EXPECTS(delay >= 0.0);
  queue_.schedule(now_ + delay, std::move(cb));
}

namespace {

/// Heap cell of one periodic task (allocated once at registration). The
/// pending queue entry is the sole strong owner: each occurrence captures
/// only a 16-byte shared_ptr — inside the callback's inline storage — so
/// the steady-state fire/reschedule cycle allocates nothing.
struct PeriodicTask {
  Simulator* sim;
  double interval;
  std::shared_ptr<bool> cancelled;
  EventQueue::Callback callback;

  void fire(double t, const std::shared_ptr<PeriodicTask>& self) {
    if (*cancelled) return;
    callback(t);
    if (*cancelled) return;  // the callback may have cancelled the handle
    sim->schedule_at(t + interval, [self](double next) {
      self->fire(next, self);
    });
  }
};

}  // namespace

Simulator::PeriodicHandle Simulator::schedule_periodic(
    double first_at, double interval, EventQueue::Callback cb) {
  CF_EXPECTS(first_at >= now_);
  CF_EXPECTS(interval > 0.0);
  CF_EXPECTS(cb != nullptr);
  PeriodicHandle handle;
  auto task = std::make_shared<PeriodicTask>(
      PeriodicTask{this, interval, handle.cancelled_, std::move(cb)});
  schedule_at(first_at,
              [task](double t) { task->fire(t, task); });
  return handle;
}

std::uint64_t Simulator::run_until(double horizon) {
  CF_EXPECTS(horizon >= now_);
  std::uint64_t executed = 0;
  while (!queue_.empty() && queue_.next_time() <= horizon) {
    auto fired = queue_.pop();
    CF_ENSURES_MSG(fired.time >= now_, "event time regressed");
    now_ = fired.time;
    {
      const util::TraceSpan span("dispatch", "sim");
      fired.callback(fired.time);
    }
    ++executed;
  }
  now_ = horizon;
  return executed;
}

}  // namespace creditflow::sim
