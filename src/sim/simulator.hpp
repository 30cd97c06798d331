// CreditFlow: simulation driver — a typed event calendar over a monotone
// clock.
//
// An event is a 24-byte record (time, seq, agent, kind, arg), not a
// closure: an agent attaches once and receives its events through
// Agent::on_event. The calendar is one binary heap ordered by time, then by
// a single seq shared by every agent and kind, so equal-time events fire in
// scheduling order. A periodic event is a kind whose handler schedules its
// next occurrence. Memory is bounded by the peak number of pending events,
// and a warmed schedule/fire cycle allocates nothing.
#pragma once

#include <cstdint>
#include <vector>

namespace creditflow::sim {

/// Discrete-event simulator: schedule events, then run to a horizon.
///
/// Time starts at 0 and only moves forward. Handlers may schedule further
/// events freely; scheduling into the past (before the current time) is a
/// precondition violation.
class Simulator {
 public:
  /// Receiver of calendar events. `kind` and `arg` mean whatever the agent
  /// scheduled them to mean; the simulator only orders and delivers them.
  class Agent {
   public:
    virtual void on_event(std::uint8_t kind, std::uint32_t arg, double t) = 0;

   protected:
    ~Agent() = default;
  };
  using AgentId = std::uint16_t;

  Simulator() = default;
  /// Agents hold the simulator's address and it holds theirs.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }

  /// Deliver the events scheduled under the returned id to `agent`.
  AgentId attach(Agent& agent);
  /// Stop delivering to `id`. Its pending events stay on the calendar (and
  /// in pending_events()) and pop as no-ops, so a kind that reschedules
  /// itself from its handler stops re-arming; the agent may be destroyed.
  void detach(AgentId id);

  /// Schedule (`kind`, `arg`) for agent `id` at absolute time `t` >= now().
  void schedule(double t, AgentId id, std::uint8_t kind,
                std::uint32_t arg = 0);

  /// Run until the calendar drains or time would exceed `horizon`; the clock
  /// is left at `horizon`. Returns events popped, a detached agent's
  /// no-ops included.
  std::uint64_t run_until(double horizon);

 private:
  struct Entry {
    double time;
    std::uint64_t seq;
    std::uint32_t arg;
    AgentId agent;
    std::uint8_t kind;
  };
  static_assert(sizeof(Entry) <= 24, "calendar entries are 24 bytes");
  struct Later;

  std::vector<Entry> heap_;
  std::vector<Agent*> agents_;  ///< by AgentId; nullptr once detached
  std::uint64_t next_seq_ = 0;
  double now_ = 0.0;
};

}  // namespace creditflow::sim
