// Google-benchmark microbenchmarks for the simulation substrate: event
// calendar throughput, protocol round cost (end-to-end and purchase-phase),
// topology generation and window advance.
//
// The end-to-end readouts (round_us_per_round + peak_rss_bytes in
// BM_SimulationCore*) are the simulation-core perf trajectory: CI exports
// them as BENCH_simcore.json so regressions in the full round loop — not
// just the purchase phase — show up run over run.
#include <benchmark/benchmark.h>

#include <chrono>

#if __has_include(<sys/resource.h>)
#include <sys/resource.h>
#define CREDITFLOW_BENCH_HAS_GETRUSAGE 1
#endif

#include "graph/generators.hpp"
#include "p2p/peer.hpp"
#include "p2p/protocol.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace creditflow;

/// Process peak RSS (high-water mark) in bytes; 0 where unsupported.
double peak_rss_bytes() {
#ifdef CREDITFLOW_BENCH_HAS_GETRUSAGE
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) * 1024.0;  // KiB on Linux
#else
  return 0.0;
#endif
}

/// Receives calendar events and does nothing, so the bench below times the
/// calendar alone.
struct NoOpAgent : sim::Simulator::Agent {
  void on_event(std::uint8_t, std::uint32_t, double) override {}
};

// One batch: 64 events at random times, then run the calendar dry.
void BM_CalendarScheduleAndRun(benchmark::State& state) {
  sim::Simulator simulator;
  NoOpAgent agent;
  const auto id = simulator.attach(agent);
  util::Rng rng(1);
  for (auto _ : state) {
    const double base = simulator.now();
    for (int i = 0; i < 64; ++i) {
      simulator.schedule(base + rng.uniform(0.0, 1000.0), id, 0);
    }
    benchmark::DoNotOptimize(simulator.run_until(base + 1000.0));
  }
}
BENCHMARK(BM_CalendarScheduleAndRun);

void BM_ScaleFreeGeneration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  graph::ScaleFreeParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::scale_free(n, params, rng));
  }
}
BENCHMARK(BM_ScaleFreeGeneration)->Arg(500)->Arg(2000);

// One slot's window, as the round loop moves it: gain a chunk, advance by 2.
void BM_PeerTableAdvance(benchmark::State& state) {
  p2p::PeerTable peers(1, 64);
  p2p::ChunkId base = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(peers.set(0, base + 60));
    peers.advance(0, base + 2);
    base += 2;
    benchmark::DoNotOptimize(peers.owned(0).data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PeerTableAdvance);

// One simulated round per benchmark iteration, measured end to end: window
// advance, seeding, purchase phase, taxation/churn bookkeeping, and the
// calendar's fire/reschedule cycle. round_us_per_round is the wall time
// of the whole loop (measured around run_until, rounds == iterations) —
// the number the allocation-free-core work is judged on —
// phase_us_per_round its purchase-phase share. setup_s is the market's
// construction plus start(), the overlay bootstrap included. The overlay's
// edge_cells_in_use and edge_cell_capacity, read at the end, show the edge
// arena's share of the memory.
void run_round_benchmark(benchmark::State& state, p2p::ProtocolConfig cfg,
                         double warm_seconds = 50.0) {
  const auto setup_start = std::chrono::steady_clock::now();
  sim::Simulator simulator;
  p2p::StreamingProtocol proto(cfg, simulator);
  proto.start();
  const double setup_seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() -
                                   setup_start)
                                   .count();
  simulator.run_until(warm_seconds);  // warm the market
  const double phase_before = proto.purchase_phase_seconds();
  double t = warm_seconds;
  double wall_seconds = 0.0;
  for (auto _ : state) {
    t += 1.0;
    const auto start = std::chrono::steady_clock::now();
    simulator.run_until(t);
    wall_seconds += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  }
  const auto rounds = static_cast<double>(state.iterations());
  state.counters["tx"] = static_cast<double>(
      proto.metrics().counter("market.transactions"));
  state.counters["round_us_per_round"] = wall_seconds * 1e6 / rounds;
  state.counters["phase_us_per_round"] =
      (proto.purchase_phase_seconds() - phase_before) * 1e6 / rounds;
  state.counters["peak_rss_bytes"] = peak_rss_bytes();
  state.counters["setup_s"] = setup_seconds;
  state.counters["edge_cells_in_use"] =
      static_cast<double>(proto.overlay().edge_cells_in_use());
  state.counters["edge_cell_capacity"] =
      static_cast<double>(proto.overlay().edge_cell_capacity());
}

void BM_ProtocolRound(benchmark::State& state) {
  p2p::ProtocolConfig cfg;
  cfg.initial_peers = static_cast<std::size_t>(state.range(0));
  cfg.max_peers = cfg.initial_peers;
  cfg.initial_credits = 100;
  cfg.seed = 5;
  run_round_benchmark(state, cfg);
}
BENCHMARK(BM_ProtocolRound)->Arg(200)->Arg(1000)->Unit(benchmark::kMillisecond);

// The simulation-core trajectory benchmark: the fig11 open-market
// configuration (churn, heterogeneous spending) at its published scale.
// This is the configuration the ≥1.2× end-to-end acceptance target is
// measured on, so its counters are what CI archives as BENCH_simcore.json.
void BM_SimulationCore(benchmark::State& state) {
  p2p::ProtocolConfig cfg;
  cfg.initial_peers = 500;
  cfg.max_peers = 2048;
  cfg.initial_credits = 100;
  cfg.seed = 2012;
  cfg.heterogeneity.spend_rate_cv = 0.3;
  cfg.churn.enabled = true;
  cfg.churn.arrival_rate = static_cast<double>(state.range(0));
  cfg.churn.mean_lifespan = 500.0;
  run_round_benchmark(state, cfg);
}
BENCHMARK(BM_SimulationCore)
    ->ArgNames({"arrival_rate"})
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

// The scaling curve: the fig11-style open market generalized across
// population scales 10³..10⁶. The lifespan scales with N (equilibrium
// population = arrival_rate × mean_lifespan ≈ N, the same relation fig11's
// 500-peer market satisfies) so churn stays on at every scale while the
// round loop — not the O(active) preferential-attachment joins — dominates.
// Iterations are pinned so google-benchmark's adaptive re-runs never re-pay
// the 10⁶-peer setup; warm-up is a fixed 20 rounds for the same reason.
// bytes_per_peer divides process peak RSS by the population; RSS is a
// process-wide high-water mark, so within one process run each size's
// readout is only meaningful if sizes run ascending (the registration
// order) — the CI script keeps that order.
void BM_SimulationCoreScale(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  p2p::ProtocolConfig cfg;
  cfg.initial_peers = n;
  cfg.max_peers = n + n / 8 + 16;  // churn headroom above equilibrium
  cfg.initial_credits = 100;
  cfg.seed = 2012;
  cfg.heterogeneity.spend_rate_cv = 0.3;
  cfg.churn.enabled = true;
  cfg.churn.arrival_rate = 2.0;
  cfg.churn.mean_lifespan = static_cast<double>(n) / 2.0;
  run_round_benchmark(state, cfg, /*warm_seconds=*/20.0);
  state.counters["bytes_per_peer"] =
      peak_rss_bytes() / static_cast<double>(n);
}
BENCHMARK(BM_SimulationCoreScale)
    ->ArgNames({"peers"})
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(10);

// Shared scaffolding for the purchase-phase benches: warm the market, run
// one simulated round per benchmark iteration, and report the
// purchase-phase wall time per round — the hot-path readout
// (rounds == benchmark iterations here).
void run_purchase_phase_benchmark(benchmark::State& state,
                                  p2p::ProtocolConfig cfg) {
  cfg.overlay_mean_degree = static_cast<double>(state.range(0));
  sim::Simulator simulator;
  p2p::StreamingProtocol proto(cfg, simulator);
  proto.start();
  simulator.run_until(50.0);  // warm the market
  const double phase_before = proto.purchase_phase_seconds();
  double t = 50.0;
  for (auto _ : state) {
    t += 1.0;
    simulator.run_until(t);
  }
  state.counters["tx"] = static_cast<double>(
      proto.metrics().counter("market.transactions"));
  state.counters["phase_us_per_round"] =
      (proto.purchase_phase_seconds() - phase_before) * 1e6 /
      static_cast<double>(state.iterations());
}

// The purchase-phase hot path across overlay degree: candidate masks built
// from the neighbors' ownership rows, one seller pick per wanted chunk a
// neighbor can sell.
void BM_PurchasePhase(benchmark::State& state) {
  p2p::ProtocolConfig cfg;
  cfg.initial_peers = 500;
  cfg.max_peers = 500;
  cfg.initial_credits = 100;
  cfg.seed = 7;
  run_purchase_phase_benchmark(state, cfg);
}
BENCHMARK(BM_PurchasePhase)
    ->ArgNames({"degree"})
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

// The same in a supply-limited market (upload capacity below the stream
// rate, the paper's saturated Sec. V-C regime, with a long playback
// window): buyers carry long shopping lists, sellers drain mid-phase, and
// the 96-chunk window takes the generic mask width.
void BM_PurchasePhaseBacklogged(benchmark::State& state) {
  p2p::ProtocolConfig cfg;
  cfg.initial_peers = 500;
  cfg.max_peers = 500;
  cfg.initial_credits = 100;
  cfg.seed = 8;
  cfg.stream_rate = 2.4;
  cfg.upload_capacity = 2.0;  // < stream_rate: chronically supply-limited
  cfg.window_chunks = 96;
  cfg.max_purchase_attempts = 96;
  cfg.base_spend_rate = 7.2;
  run_purchase_phase_benchmark(state, cfg);
}
BENCHMARK(BM_PurchasePhaseBacklogged)
    ->ArgNames({"degree"})
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

// The PR-8 order-book purchase path, end to end: every round posts /
// reprices asks for the full seller pool and crosses the book for every
// purchase (adaptive pricing, partial fills, drain expiry). Compare
// round_us_per_round against BM_ProtocolRound at the same population for
// the book's overhead over the direct seller pick; CI archives these
// counters as BENCH_orderbook.json and gates them like the core's.
void BM_OrderBook(benchmark::State& state) {
  p2p::ProtocolConfig cfg;
  cfg.initial_peers = static_cast<std::size_t>(state.range(0));
  cfg.max_peers = cfg.initial_peers;
  cfg.initial_credits = 100;
  cfg.seed = 9;
  cfg.market_mode = p2p::ProtocolConfig::MarketMode::kOrderBook;
  cfg.book.ask_pricing =
      p2p::ProtocolConfig::OrderBookConfig::AskPricing::kAdaptive;
  cfg.book.base_price = 2;
  run_round_benchmark(state, cfg);
}
BENCHMARK(BM_OrderBook)->Arg(200)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_ProtocolRoundWithChurn(benchmark::State& state) {
  p2p::ProtocolConfig cfg;
  cfg.initial_peers = 400;
  cfg.max_peers = 1024;
  cfg.initial_credits = 100;
  cfg.seed = 6;
  cfg.churn.enabled = true;
  cfg.churn.arrival_rate = 1.0;
  cfg.churn.mean_lifespan = 400.0;
  run_round_benchmark(state, cfg);
}
BENCHMARK(BM_ProtocolRoundWithChurn)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
