// CreditFlow: discrete-event core — a binary-heap event queue with stable
// FIFO ordering among simultaneous events.
//
// The queue is allocation-free in steady state: callbacks live in slots
// that are recycled through a free list the moment their event fires (so
// memory is bounded by the *peak* number of pending events, not the
// lifetime event count), and the callback type stores captures inline
// (util::FixedFunction) instead of spilling non-trivial captures to the
// heap the way std::function does. A simulated round that schedules as many
// events as it retires therefore runs without a single heap allocation once
// vector capacities have warmed up.
#pragma once

#include <cstdint>
#include <vector>

#include "util/function.hpp"

namespace creditflow::sim {

/// Priority queue of (time, sequence)-ordered callbacks.
class EventQueue {
 public:
  /// Inline-storage callback: receives the fire time. 64 bytes covers every
  /// closure the simulator and protocol schedule (the largest is a teardown
  /// guard wrapping a std::function) without a heap fallback; larger
  /// captures fail to compile rather than silently allocating.
  using Callback = util::FixedFunction<void(double), 64>;

  EventQueue() = default;

  /// Schedule `cb` at absolute time `t`. Events at equal times fire in
  /// scheduling order.
  void schedule(double t, Callback cb);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  /// Time of the earliest event; requires !empty().
  [[nodiscard]] double next_time() const;

  /// Pop and return the earliest event; requires !empty().
  struct Fired {
    double time;
    Callback callback;
  };
  [[nodiscard]] Fired pop();

 private:
  /// Heap entries are 24 bytes and name their callback's slot, so a sift
  /// moves the entry, never the 80-byte callback.
  struct Entry {
    double time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::vector<Entry> heap_;
  std::vector<Callback> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace creditflow::sim
