// Counting-allocator regression test: the steady-state simulation round
// loop must perform zero heap allocations once warmed up.
//
// Global operator new/delete are replaced with counting versions for this
// whole test binary; the test warms a market past the point where every
// scratch buffer, the event calendar, and every metric cell has reached its
// steady-state capacity, then asserts the allocation counter does not move
// across a block of further rounds. This pins the tentpole property of the
// allocation-free core end to end — window advance, seeding, the purchase
// phase, taxation, and the calendar's fire/reschedule cycle — not just one
// subsystem. Membership churn is covered twice: the overlay's
// fixed-capacity edge arena makes join/leave heap-silent, so a warmed
// overlay must absorb sustained join/leave bursts at zero allocations, and
// churn markets must run their arrival and departure events at zero
// allocations too (a pending departure is a 24-byte calendar record).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "graph/generators.hpp"
#include "p2p/overlay.hpp"
#include "p2p/protocol.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

// GCC pairs `new` expressions it inlines with our malloc-backed
// replacement delete and flags the malloc/free mismatch it cannot see
// through; the pairing is exactly what a replaced global allocator does.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size) == 0) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace creditflow {
namespace {

std::uint64_t allocations_during_rounds(p2p::ProtocolConfig cfg,
                                        double warmup_until,
                                        double measure_rounds) {
  sim::Simulator simulator;
  p2p::StreamingProtocol proto(cfg, simulator);
  proto.start();
  simulator.run_until(warmup_until);
  const std::uint64_t before = g_allocations.load();
  simulator.run_until(warmup_until + measure_rounds);
  return g_allocations.load() - before;
}

TEST(AllocationFreeCore, SteadyStateRoundLoopDoesNotAllocate) {
  p2p::ProtocolConfig cfg;
  cfg.initial_peers = 300;
  cfg.max_peers = 300;
  cfg.initial_credits = 100;
  cfg.seed = 11;
  EXPECT_EQ(allocations_during_rounds(cfg, 100.0, 50.0), 0u)
      << "the steady-state round loop allocated";
}

TEST(AllocationFreeCore, TaxationRoundsDoNotAllocate) {
  // Taxation exercises the redistribution walk over the active span.
  p2p::ProtocolConfig cfg;
  cfg.initial_peers = 300;
  cfg.max_peers = 300;
  cfg.initial_credits = 100;
  cfg.seed = 12;
  cfg.tax.enabled = true;
  cfg.tax.rate = 0.1;
  cfg.tax.threshold = 50.0;
  EXPECT_EQ(allocations_during_rounds(cfg, 150.0, 50.0), 0u)
      << "the taxation round loop allocated";
}

TEST(AllocationFreeCore, TaxationWithChurnRoundsDoNotAllocate) {
  // Churn recycles slots, and a departure forgets the peer's fractional
  // tax debt: the first taxed sale of the slot's next occupant must reuse
  // the slot's cell, not allocate a fresh one.
  p2p::ProtocolConfig cfg;
  cfg.initial_peers = 500;
  cfg.max_peers = 2048;
  cfg.seed = 13;
  cfg.churn.enabled = true;
  cfg.churn.arrival_rate = 2.0;
  cfg.churn.mean_lifespan = 250.0;
  cfg.tax.enabled = true;
  cfg.tax.rate = 0.1;
  cfg.tax.threshold = 50.0;
  EXPECT_EQ(allocations_during_rounds(cfg, 600.0, 100.0), 0u)
      << "the taxed churn round loop allocated";
}

struct BurstOutcome {
  std::uint64_t allocations = 0;  ///< inside the measured burst
  std::size_t cells_appended = 0;  ///< by the measured burst's joins
  std::size_t high_water = 0;      ///< most cells in use at once
  std::size_t rows_moved_down = 0;  ///< rows the burst saw packed
};

/// Bootstraps `overlay` from `g`, warms it to its slot capacity once, then
/// counts allocations across 100 join/leave bursts — including the
/// lowest-inactive-slot scan every protocol arrival performs.
BurstOutcome overlay_join_leave_burst(p2p::Overlay& overlay,
                                      const graph::Graph& g, util::Rng rng) {
  BurstOutcome out;
  const auto join = [&](std::uint32_t slot) {
    overlay.join(slot, 10, rng);
    out.high_water = std::max(out.high_water, overlay.edge_cells_in_use());
    return 2 * overlay.degree(slot);
  };
  overlay.init_from_graph(g);
  // Warm-up: drive membership to the slot capacity once, then carve out
  // the churn headroom the burst will recycle.
  for (std::uint32_t p = 300; p < 420; ++p) join(p);
  for (std::uint32_t p = 350; p < 420; ++p) overlay.leave(p);

  // A row moves only up, to the arena's top, unless the arena packs it
  // down: a row seen at a lower address than before has been packed.
  std::vector<const std::uint32_t*> seen(overlay.capacity(), nullptr);
  const auto note_moves = [&] {
    for (const std::uint32_t p : overlay.active_peers()) {
      const std::uint32_t* at = overlay.neighbors(p).data();
      if (seen[p] != nullptr && at < seen[p]) ++out.rows_moved_down;
      seen[p] = at;
    }
  };
  note_moves();
  const std::uint64_t before = g_allocations.load();
  for (int round = 0; round < 100; ++round) {
    for (int k = 0; k < 20; ++k) {
      const auto slot = overlay.lowest_inactive_slot();
      if (!slot.has_value()) {
        ADD_FAILURE() << "no free slot for the burst";
        break;
      }
      out.cells_appended += join(*slot);
      note_moves();
    }
    for (std::uint32_t p = 350; p < 370; ++p) overlay.leave(p);
    note_moves();
  }
  out.allocations = g_allocations.load() - before;
  return out;
}

TEST(AllocationFreeCore, OverlayJoinLeaveBurstsDoNotAllocate) {
  // The edge-arena property head on: once the overlay has seen its
  // high-water population once (join-weight scratch at capacity),
  // arbitrary join/leave bursts touch the pool and nothing else. Zero
  // allocations, not amortized.
  util::Rng rng(14);
  graph::ScaleFreeParams sf;
  sf.target_mean_degree = 20.0;
  const auto g = graph::scale_free(300, sf, rng);
  p2p::Overlay overlay(420);
  const auto roomy = overlay_join_leave_burst(overlay, g, rng);
  EXPECT_EQ(roomy.allocations, 0u)
      << "join/leave burst allocated on the edge arena";
  EXPECT_EQ(overlay.edges_dropped(), 0u)
      << "edge arena too small for the burst";

  // An arena a few cells above the same burst's high-water mark: the
  // burst appends more than twice the arena's cells, and the arena packs
  // its rows down inside the measured window.
  p2p::Overlay tight(420, roomy.high_water + 8);
  const auto packed = overlay_join_leave_burst(tight, g, rng);
  EXPECT_GT(packed.cells_appended, 2 * tight.edge_cell_capacity());
  EXPECT_GT(packed.rows_moved_down, 0u) << "the arena never packed";
  EXPECT_EQ(packed.high_water, roomy.high_water);
  EXPECT_EQ(packed.allocations, 0u)
      << "join/leave burst allocated on a tight edge arena";
  EXPECT_EQ(tight.edges_dropped(), 0u)
      << "tight edge arena refused an edge the live rows had room for";
}

TEST(AllocationFreeCore, OrderBookSteadyStateDoesNotAllocate) {
  // The PR-8 acceptance property: with purchases routed through the order
  // book (posting, adaptive repricing, crossing, partial fills, drain
  // expiry every round), the warmed round loop still never touches the
  // heap — the book is pooled cells and intrusive lists, constructed once.
  p2p::ProtocolConfig cfg;
  cfg.initial_peers = 300;
  cfg.max_peers = 300;
  cfg.initial_credits = 100;
  cfg.seed = 15;
  cfg.market_mode = p2p::ProtocolConfig::MarketMode::kOrderBook;
  cfg.book.ask_pricing =
      p2p::ProtocolConfig::OrderBookConfig::AskPricing::kAdaptive;
  cfg.book.base_price = 2;
  cfg.book.seller_fraction = 0.7;
  EXPECT_EQ(allocations_during_rounds(cfg, 100.0, 50.0), 0u)
      << "the order-book round loop allocated";
}

TEST(AllocationFreeCore, StrategyLayerSteadyStateDoesNotAllocate) {
  // The strategy-layer acceptance property: with every adversarial
  // population live at once — free-riders zeroing budgets, whitewashers
  // cycling identities through departure/re-activation, collusion rings
  // washing credit, and staked seeders locking/revalidating bonds — the
  // warmed round loop still never touches the heap. The colluder/staked
  // scratch vectors are reserved at construction; whitewash resets reuse
  // the churn path's pooled overlay slots. (A whitewash reset schedules no
  // event: under timed churn the slot keeps its pending departure.)
  p2p::ProtocolConfig cfg;
  cfg.initial_peers = 300;
  cfg.max_peers = 300;
  cfg.initial_credits = 100;
  cfg.seed = 16;
  cfg.strat.free_rider_fraction = 0.1;
  cfg.strat.whitewash_fraction = 0.1;
  cfg.strat.whitewash_threshold = 40.0;
  cfg.strat.collude_fraction = 0.1;
  cfg.strat.collude_clique = 3;
  cfg.strat.collude_amount = 1;
  cfg.strat.staked_fraction = 0.1;
  cfg.strat.stake_amount = 20;
  cfg.strat.revalidate_rounds = 8;
  EXPECT_EQ(allocations_during_rounds(cfg, 100.0, 50.0), 0u)
      << "the strategy-enabled round loop allocated";
}

TEST(AllocationFreeCore, ChurnRoundLoopDoesNotAllocate) {
  // The fig11 open market: Poisson arrivals recycle slots, every alive peer
  // holds one pending departure on the calendar, and the population
  // wanders to new highs well after warm-up. Neither the round's scratch
  // nor the calendar may grow with it.
  p2p::ProtocolConfig churn;
  churn.initial_peers = 500;
  churn.max_peers = 2048;
  churn.churn.enabled = true;
  churn.churn.arrival_rate = 2.0;
  churn.churn.mean_lifespan = 250.0;

  p2p::ProtocolConfig fig11 = churn;
  fig11.seed = 2012;
  fig11.heterogeneity.spend_rate_cv = 0.3;
  EXPECT_EQ(allocations_during_rounds(fig11, 2000.0, 500.0), 0u)
      << "the churn round loop allocated";

  // Whitewashers add identity resets on top: a reset departs and
  // re-activates a slot inside the round, inheriting its pending departure.
  p2p::ProtocolConfig whitewash = churn;
  whitewash.seed = 2013;
  whitewash.strat.whitewash_fraction = 0.2;
  whitewash.strat.whitewash_threshold = 10.0;
  EXPECT_EQ(allocations_during_rounds(whitewash, 2000.0, 1000.0), 0u)
      << "the whitewashing churn round loop allocated";
}

TEST(AllocationFreeCore, TracingEnabledSteadyStateDoesNotAllocate) {
  // With the span tracer live, steady-state rounds must still be
  // allocation-free: spans write into pre-reserved thread-local rings.
  // enable() happens before the warm-up so the one-time ring registration
  // (the only allocating step) lands outside the measured window.
  util::Tracer::instance().enable();
  p2p::ProtocolConfig cfg;
  cfg.initial_peers = 300;
  cfg.max_peers = 300;
  cfg.initial_credits = 100;
  cfg.seed = 13;
  EXPECT_EQ(allocations_during_rounds(cfg, 100.0, 50.0), 0u)
      << "the traced steady-state round loop allocated";
  util::Tracer::instance().disable();
  util::Tracer::instance().clear();
}

}  // namespace
}  // namespace creditflow
