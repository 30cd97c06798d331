#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"
#include "util/trace.hpp"

namespace creditflow::sim {

struct Simulator::Later {
  bool operator()(const Entry& a, const Entry& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

Simulator::AgentId Simulator::attach(Agent& agent) {
  CF_EXPECTS(agents_.size() < std::numeric_limits<AgentId>::max());
  agents_.push_back(&agent);
  return static_cast<AgentId>(agents_.size() - 1);
}

void Simulator::detach(AgentId id) {
  CF_EXPECTS(id < agents_.size());
  agents_[id] = nullptr;
}

void Simulator::schedule(double t, AgentId id, std::uint8_t kind,
                         std::uint32_t arg) {
  CF_EXPECTS_MSG(t >= now_, "cannot schedule into the past");
  CF_EXPECTS(id < agents_.size());
  heap_.push_back(Entry{t, next_seq_++, arg, id, kind});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

std::uint64_t Simulator::run_until(double horizon) {
  CF_EXPECTS(horizon >= now_);
  std::uint64_t executed = 0;
  while (!heap_.empty() && heap_.front().time <= horizon) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Entry e = heap_.back();
    heap_.pop_back();
    CF_ENSURES_MSG(e.time >= now_, "event time regressed");
    now_ = e.time;
    {
      const util::TraceSpan span("dispatch", "sim");
      if (Agent* agent = agents_[e.agent]) {
        agent->on_event(e.kind, e.arg, e.time);
      }
    }
    ++executed;
  }
  now_ = horizon;
  return executed;
}

}  // namespace creditflow::sim
