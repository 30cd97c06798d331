// CreditFlow: simulation driver — a monotone clock over the event queue with
// helpers for relative scheduling and periodic tasks.
#pragma once

#include <functional>
#include <memory>

#include "sim/event_queue.hpp"

namespace creditflow::sim {

/// Discrete-event simulator: schedule work, then run to a horizon.
///
/// Time starts at 0 and only moves forward. Callbacks may schedule further
/// events freely; scheduling into the past (before the current time) is a
/// precondition violation.
class Simulator {
 public:
  Simulator() = default;

  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Schedule at an absolute time >= now().
  void schedule_at(double t, EventQueue::Callback cb);
  /// Schedule `delay` seconds from now (delay >= 0).
  void schedule_after(double delay, EventQueue::Callback cb);

  /// Register a periodic task firing every `interval` starting at
  /// `first_at`; runs until the horizon or until cancelled via the returned
  /// handle's `cancel()`. The callback receives the fire time. The task
  /// body is allocated once here; each subsequent occurrence reschedules
  /// through an inline-storage trampoline, so steady-state periodic firing
  /// performs no heap allocation.
  class PeriodicHandle {
   public:
    PeriodicHandle() = default;
    void cancel() { *cancelled_ = true; }

   private:
    friend class Simulator;
    std::shared_ptr<bool> cancelled_ = std::make_shared<bool>(false);
  };
  PeriodicHandle schedule_periodic(double first_at, double interval,
                                   EventQueue::Callback cb);

  /// Run until the queue drains or time would exceed `horizon`; the clock is
  /// left at min(horizon, last-event time). Returns events executed.
  std::uint64_t run_until(double horizon);

 private:
  EventQueue queue_;
  double now_ = 0.0;
};

}  // namespace creditflow::sim
