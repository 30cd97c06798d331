// Tests for sim/event_queue, sim/simulator, sim/metrics.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/assert.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

namespace creditflow::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(3.0, [&](double) { fired.push_back(3); });
  q.schedule(1.0, [&](double) { fired.push_back(1); });
  q.schedule(2.0, [&](double) { fired.push_back(2); });
  while (!q.empty()) {
    auto f = q.pop();
    f.callback(f.time);
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAmongSimultaneous) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    q.schedule(1.0, [&fired, i](double) { fired.push_back(i); });
  }
  while (!q.empty()) {
    auto f = q.pop();
    f.callback(f.time);
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RecycledSlotsKeepEachEventsCallback) {
  // A pop frees its callback slot and the next schedule reuses it; every
  // heap entry must still reach its own callback, in (time, seq) order.
  EventQueue q;
  std::vector<int> fired;
  const auto fire_next = [&q] {
    auto f = q.pop();
    f.callback(f.time);
  };
  q.schedule(1.0, [&](double) { fired.push_back(1); });
  q.schedule(3.0, [&](double) { fired.push_back(3); });
  fire_next();
  q.schedule(2.0, [&](double) { fired.push_back(2); });
  q.schedule(3.0, [&](double) { fired.push_back(4); });
  EXPECT_EQ(q.size(), 3u);
  while (!q.empty()) fire_next();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, NullCallbackRejected) {
  EventQueue q;
  EXPECT_THROW(q.schedule(0.0, nullptr), util::PreconditionError);
}

TEST(EventQueue, MoveOnlyCapturesAreSupported) {
  // The inline-storage callback type must accept move-only captures —
  // std::function forces copyability, which the old queue required.
  EventQueue q;
  auto payload = std::make_unique<int>(42);
  int seen = 0;
  q.schedule(1.0, [p = std::move(payload), &seen](double) { seen = *p; });
  auto f = q.pop();
  f.callback(f.time);
  EXPECT_EQ(seen, 42);
}

TEST(Simulator, RunsToHorizonAndAdvancesClock) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1.0, [&](double) { ++count; });
  sim.schedule_at(5.0, [&](double) { ++count; });
  sim.schedule_at(100.0, [&](double) { ++count; });
  const auto executed = sim.run_until(10.0);
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
  // The 100.0 event is still pending.
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, CallbacksScheduleMoreWork) {
  Simulator sim;
  std::vector<double> times;
  std::function<void(double)> chain = [&](double t) {
    times.push_back(t);
    if (times.size() < 4) sim.schedule_after(1.0, chain);
  };
  sim.schedule_at(0.5, chain);
  sim.run_until(100.0);
  EXPECT_EQ(times, (std::vector<double>{0.5, 1.5, 2.5, 3.5}));
}

TEST(Simulator, SchedulingIntoPastThrows) {
  Simulator sim;
  sim.schedule_at(1.0, [](double) {});
  sim.run_until(5.0);
  EXPECT_THROW(sim.schedule_at(2.0, [](double) {}),
               util::PreconditionError);
}

TEST(Simulator, PeriodicFiresAtInterval) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_periodic(1.0, 2.0, [&](double t) { times.push_back(t); });
  sim.run_until(7.5);
  EXPECT_EQ(times, (std::vector<double>{1.0, 3.0, 5.0, 7.0}));
}

TEST(Simulator, PeriodicCancelStops) {
  Simulator sim;
  int count = 0;
  auto handle =
      sim.schedule_periodic(1.0, 1.0, [&](double) { ++count; });
  sim.schedule_at(3.5, [&](double) { handle.cancel(); });
  sim.run_until(10.0);
  EXPECT_EQ(count, 3);  // fired at 1, 2, 3
}

TEST(Metrics, CountersAccumulate) {
  MetricsRegistry m;
  std::uint64_t* cell = m.counter_cell("a");
  *cell += 1;
  *cell += 4;
  EXPECT_EQ(m.counter("a"), 5u);
  EXPECT_EQ(m.counter("missing"), 0u);
  // The cell is the counter's storage for the registry's lifetime.
  (void)m.counter_cell("b");
  EXPECT_EQ(m.counter_cell("a"), cell);
}

TEST(Metrics, HistogramCellsRecordAndReadBack) {
  MetricsRegistry m;
  EXPECT_EQ(m.histogram("missing"), nullptr);
  util::Log2Histogram* h = m.histogram_cell("purchase.latency_us");
  ASSERT_NE(h, nullptr);
  h->add(100);
  h->add(200);
  const util::Log2Histogram* read = m.histogram("purchase.latency_us");
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read, h);
  EXPECT_EQ(read->count(), 2u);
  EXPECT_DOUBLE_EQ(read->sum(), 300.0);
}

}  // namespace
}  // namespace creditflow::sim
