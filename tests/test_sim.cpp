// Tests for sim/simulator (the typed event calendar) and sim/metrics.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/assert.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

namespace creditflow::sim {
namespace {

/// Logs every event it receives. Kind kTick reschedules itself `every`
/// seconds after each firing when `every` > 0, the way the protocol's
/// round does.
struct Recorder : Simulator::Agent {
  static constexpr std::uint8_t kTick = 7;

  struct Fired {
    double t;
    int agent;
    std::uint8_t kind;
    std::uint32_t arg;
    bool operator==(const Fired&) const = default;
  };

  Recorder(Simulator& s, int tag, std::vector<Fired>& log, double every = 0.0)
      : sim(s), tag(tag), log(log), every(every), id(s.attach(*this)) {}

  void on_event(std::uint8_t kind, std::uint32_t arg, double t) override {
    log.push_back(Fired{t, tag, kind, arg});
    if (kind == kTick && every > 0.0) sim.schedule(t + every, id, kTick);
  }

  Simulator& sim;
  int tag;
  std::vector<Fired>& log;
  double every;
  Simulator::AgentId id;
};

using Log = std::vector<Recorder::Fired>;

TEST(Simulator, FiresByTimeThenInSchedulingOrderAcrossAgentsAndKinds) {
  Simulator sim;
  Log log;
  Recorder a(sim, 0, log);
  Recorder b(sim, 1, log);
  sim.schedule(3.0, a.id, 1, 30);
  sim.schedule(2.0, b.id, 2, 20);
  sim.schedule(2.0, a.id, 3, 21);
  sim.schedule(1.0, b.id, 1, 10);
  sim.schedule(2.0, b.id, 1, 22);
  sim.schedule(2.0, a.id, 2, 23);
  EXPECT_EQ(sim.run_until(10.0), 6u);
  EXPECT_EQ(log, (Log{{1.0, 1, 1, 10},
                      {2.0, 1, 2, 20},
                      {2.0, 0, 3, 21},
                      {2.0, 1, 1, 22},
                      {2.0, 0, 2, 23},
                      {3.0, 0, 1, 30}}));
}

TEST(Simulator, RunsToHorizonAndLeavesTheClockThere) {
  Simulator sim;
  Log log;
  Recorder a(sim, 0, log);
  sim.schedule(1.0, a.id, 0);
  sim.schedule(5.0, a.id, 0);
  sim.schedule(100.0, a.id, 0);
  EXPECT_EQ(sim.run_until(10.0), 2u);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
  // The 100.0 event is still pending.
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, SelfReschedulingKindFiresAtInterval) {
  Simulator sim;
  Log log;
  Recorder a(sim, 0, log, /*every=*/2.0);
  sim.schedule(1.0, a.id, Recorder::kTick);
  sim.run_until(7.5);
  std::vector<double> times;
  for (const auto& f : log) times.push_back(f.t);
  EXPECT_EQ(times, (std::vector<double>{1.0, 3.0, 5.0, 7.0}));
  EXPECT_EQ(sim.pending_events(), 1u);  // the tick at 9.0
}

TEST(Simulator, SchedulingIntoPastThrows) {
  Simulator sim;
  Log log;
  Recorder a(sim, 0, log);
  sim.schedule(1.0, a.id, 0);
  sim.run_until(5.0);
  EXPECT_THROW(sim.schedule(2.0, a.id, 0), util::PreconditionError);
}

TEST(Simulator, DetachedAgentsEventsPopAsNoOps) {
  Simulator sim;
  Log log;
  Recorder gone(sim, 0, log, /*every=*/1.0);
  Recorder kept(sim, 1, log);
  sim.schedule(1.0, gone.id, Recorder::kTick);
  sim.schedule(2.5, gone.id, 4, 99);
  sim.schedule(3.0, kept.id, 5, 7);
  sim.run_until(1.5);
  EXPECT_EQ(log, (Log{{1.0, 0, Recorder::kTick, 0}}));
  sim.detach(gone.id);
  // The tick re-armed at 2.0 and the one-shot at 2.5 stay on the calendar
  // until they pop.
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_EQ(sim.run_until(2.6), 2u);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(10.0);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(log, (Log{{1.0, 0, Recorder::kTick, 0}, {3.0, 1, 5, 7}}));
}

TEST(Metrics, CountersAccumulate) {
  MetricsRegistry m;
  std::uint64_t* cell = m.counter_cell("a");
  *cell += 1;
  *cell += 4;
  EXPECT_EQ(m.counter("a"), 5u);
  EXPECT_THROW((void)m.counter("missing"), util::PreconditionError);
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
