#include "sim/event_queue.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace creditflow::sim {

void EventQueue::schedule(double t, Callback cb) {
  CF_EXPECTS_MSG(cb != nullptr, "null event callback");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot] = std::move(cb);
  heap_.push_back(Entry{t, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

double EventQueue::next_time() const {
  CF_EXPECTS(!empty());
  return heap_.front().time;
}

EventQueue::Fired EventQueue::pop() {
  CF_EXPECTS(!empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry e = heap_.back();
  heap_.pop_back();
  free_slots_.push_back(e.slot);
  return Fired{e.time, std::move(slots_[e.slot])};
}

}  // namespace creditflow::sim
