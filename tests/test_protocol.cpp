// Tests for p2p/protocol: the streaming market engine — conservation,
// content flow, taxation, churn, the availability-uniform routing rule,
// and the condensed-vs-balanced regimes.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "p2p/protocol.hpp"
#include "sim/simulator.hpp"

namespace creditflow::p2p {
namespace {

ProtocolConfig small_config() {
  ProtocolConfig cfg;
  cfg.initial_peers = 60;
  cfg.max_peers = 80;
  cfg.initial_credits = 30;
  cfg.seed = 99;
  return cfg;
}

TEST(Protocol, StartEndowsAllPeers) {
  sim::Simulator sim;
  StreamingProtocol proto(small_config(), sim);
  proto.start();
  EXPECT_EQ(proto.num_alive(), 60u);
  EXPECT_EQ(proto.ledger().circulating(), 60u * 30u);
  for (auto id : proto.alive_peers()) {
    EXPECT_EQ(proto.ledger().balance(id), 30u);
  }
  EXPECT_TRUE(proto.ledger().audit());
}

TEST(Protocol, DoubleStartThrows) {
  sim::Simulator sim;
  StreamingProtocol proto(small_config(), sim);
  proto.start();
  EXPECT_THROW(proto.start(), util::PreconditionError);
}

TEST(Protocol, RunsRoundsAndTrades) {
  sim::Simulator sim;
  StreamingProtocol proto(small_config(), sim);
  proto.start();
  sim.run_until(200.0);
  EXPECT_EQ(proto.rounds_run(), 200u);
  EXPECT_GT(proto.metrics().counter("market.transactions"), 1000u);
  EXPECT_TRUE(proto.ledger().audit());
  // Credits conserved in the closed market.
  EXPECT_EQ(proto.ledger().circulating(), 60u * 30u);
}

TEST(Protocol, HealthyMarketKeepsBuffersFull) {
  sim::Simulator sim;
  StreamingProtocol proto(small_config(), sim);
  proto.start();
  sim.run_until(300.0);
  EXPECT_GT(proto.mean_buffer_fill(), 0.6);
  // Download rates near the stream rate for the typical peer.
  const auto rates = proto.download_rate_snapshot();
  double mean = std::accumulate(rates.begin(), rates.end(), 0.0) /
                static_cast<double>(rates.size());
  EXPECT_GT(mean, 0.75 * proto.config().stream_rate);
}

TEST(Protocol, SpendingMatchesEarningGlobally) {
  sim::Simulator sim;
  StreamingProtocol proto(small_config(), sim);
  proto.start();
  sim.run_until(150.0);
  std::uint64_t earned = 0;
  std::uint64_t spent = 0;
  for (auto id : proto.alive_peers()) {
    earned += proto.peer_table().credits_earned(id);
    spent += proto.peer_table().credits_spent(id);
  }
  EXPECT_EQ(earned, spent);
  EXPECT_GT(spent, 0u);
}

TEST(Protocol, StreamHeadAdvances) {
  sim::Simulator sim;
  auto cfg = small_config();
  StreamingProtocol proto(cfg, sim);
  proto.start();
  const auto head0 = proto.stream_head();
  sim.run_until(10.0);
  const auto head1 = proto.stream_head();
  EXPECT_EQ(head1 - head0,
            static_cast<ChunkId>(10.0 * cfg.stream_rate));
}

TEST(Protocol, TaxationRedistributesAndConserves) {
  sim::Simulator sim;
  auto cfg = small_config();
  cfg.tax.enabled = true;
  cfg.tax.rate = 0.2;
  cfg.tax.threshold = 20.0;
  StreamingProtocol proto(cfg, sim);
  proto.start();
  sim.run_until(300.0);
  EXPECT_GT(proto.taxation().total_collected(), 0u);
  EXPECT_GT(proto.taxation().total_redistributed(), 0u);
  EXPECT_TRUE(proto.ledger().audit());
  EXPECT_EQ(proto.ledger().circulating() + proto.ledger().treasury(),
            60u * 30u);
}

TEST(Protocol, ChurnChangesPopulationAndConserves) {
  sim::Simulator sim;
  auto cfg = small_config();
  cfg.churn.enabled = true;
  cfg.churn.arrival_rate = 0.5;
  cfg.churn.mean_lifespan = 60.0;
  cfg.churn.join_links = 6;
  StreamingProtocol proto(cfg, sim);
  proto.start();
  sim.run_until(400.0);
  EXPECT_GT(proto.metrics().counter("churn.arrivals"), 50u);
  EXPECT_GT(proto.metrics().counter("churn.departures"), 50u);
  EXPECT_TRUE(proto.ledger().audit());
  // Population fluctuates around initial + arrival_rate * lifespan.
  EXPECT_GT(proto.num_alive(), 20u);
  EXPECT_LE(proto.num_alive(), cfg.max_peers);
}

TEST(Protocol, DepartingPeersTakeCreditsOut) {
  sim::Simulator sim;
  auto cfg = small_config();
  cfg.churn.enabled = true;
  cfg.churn.arrival_rate = 0.2;
  cfg.churn.mean_lifespan = 30.0;
  StreamingProtocol proto(cfg, sim);
  proto.start();
  sim.run_until(300.0);
  const auto burned = proto.ledger().total_burned();
  EXPECT_GT(burned, 0u);
  EXPECT_EQ(proto.ledger().circulating(),
            proto.ledger().total_minted() - burned -
                proto.ledger().treasury());
}

TEST(Protocol, TraceRecordsFlows) {
  sim::Simulator sim;
  StreamingProtocol proto(small_config(), sim);
  proto.trace().set_enabled(true);
  proto.start();
  sim.run_until(50.0);
  EXPECT_GT(proto.metrics().counter("market.transactions"), 0u);
  EXPECT_FALSE(proto.trace().pair_flows().empty());
  // Pair flows sum to the market's total volume.
  Credits total = 0;
  for (const auto& [k, v] : proto.trace().pair_flows()) total += v;
  EXPECT_EQ(total, proto.metrics().counter("market.volume"));
}

TEST(Protocol, CondensedRegimeProducesInequality) {
  // The paper's Fig. 1 condensed configuration: generous capacity headroom
  // concentrated by fill-weighted selling plus Poisson pricing and a large
  // endowment. The balanced configuration: capacity-capped, uniform pricing,
  // small endowment.
  auto run_gini = [](bool condensed) {
    sim::Simulator sim;
    ProtocolConfig cfg;
    cfg.initial_peers = 120;
    cfg.max_peers = 120;
    cfg.seed = 7;
    if (condensed) {
      cfg.initial_credits = 200;
      cfg.upload_capacity = 8.0;
      cfg.seller_choice = ProtocolConfig::SellerChoice::kFillWeighted;
      cfg.pricing.kind = econ::PricingKind::kPoisson;
      cfg.pricing.poisson_mean = 1.0;
    } else {
      cfg.initial_credits = 12;
      cfg.upload_capacity = 2.5;
      cfg.pricing.kind = econ::PricingKind::kUniform;
    }
    StreamingProtocol proto(cfg, sim);
    proto.start();
    sim.run_until(600.0);
    const auto balances = proto.balance_snapshot();
    // Sample Gini via econ would add a dependency here; compute directly.
    std::vector<double> sorted(balances);
    std::sort(sorted.begin(), sorted.end());
    double total = std::accumulate(sorted.begin(), sorted.end(), 0.0);
    double weighted = 0.0;
    const double n = static_cast<double>(sorted.size());
    for (std::size_t k = 0; k < sorted.size(); ++k) {
      weighted += (2.0 * static_cast<double>(k + 1) - n - 1.0) * sorted[k];
    }
    return total > 0.0 ? weighted / (n * total) : 0.0;
  };
  const double condensed = run_gini(true);
  const double balanced = run_gini(false);
  EXPECT_GT(condensed, balanced + 0.2);
  EXPECT_GT(condensed, 0.5);
  EXPECT_LT(balanced, 0.45);
}

TEST(Protocol, AvailabilityUniformIgnoresRowOrder) {
  // The paper's routing rule: a chunk's seller is uniform among the
  // buyer's neighbors that own it and can still sell, so a seller's place
  // in the buyer's neighbor row carries no weight. In a static market the
  // rows stay the bootstrap rows, and the seller's position divided by
  // degree - 1 averages 1/2 over the trades; a rule that favours the front
  // of the row (always the first owner) reads about 0.3.
  for (const std::uint64_t seed : {1ull, 17ull, 2012ull, 5ull}) {
    ProtocolConfig cfg;
    cfg.initial_peers = 80;
    cfg.max_peers = 120;
    cfg.initial_credits = 40;
    cfg.seed = seed;
    sim::Simulator sim;
    StreamingProtocol proto(cfg, sim);
    proto.trace().set_keep_records(true);
    proto.start();
    sim.run_until(60.0);
    double sum = 0.0;
    std::size_t trades = 0;
    for (const TransactionRecord& r : proto.trace().records()) {
      const auto row = proto.overlay().neighbors(r.buyer);
      const auto at = std::find(row.begin(), row.end(), r.seller);
      ASSERT_NE(at, row.end()) << "seed " << seed << ": seller off the row";
      if (row.size() < 2) continue;
      sum += static_cast<double>(at - row.begin()) /
             static_cast<double>(row.size() - 1);
      ++trades;
    }
    ASSERT_GT(trades, 1000u) << "seed " << seed;
    EXPECT_NEAR(sum / static_cast<double>(trades), 0.5, 0.05)
        << "seed " << seed;
  }
}

TEST(Protocol, DynamicSpendingReducesInequalityVsFixed) {
  auto run = [](bool dynamic) {
    sim::Simulator sim;
    ProtocolConfig cfg;
    cfg.initial_peers = 100;
    cfg.max_peers = 100;
    cfg.initial_credits = 100;
    cfg.seed = 21;
    cfg.heterogeneity.spend_rate_cv = 0.3;  // asymmetric utilization
    cfg.spending.dynamic = dynamic;
    cfg.spending.dynamic_threshold = 100.0;
    sim::Simulator s;
    StreamingProtocol proto(cfg, s);
    proto.start();
    s.run_until(800.0);
    const auto balances = proto.balance_snapshot();
    std::vector<double> sorted(balances);
    std::sort(sorted.begin(), sorted.end());
    double total = std::accumulate(sorted.begin(), sorted.end(), 0.0);
    double weighted = 0.0;
    const double n = static_cast<double>(sorted.size());
    for (std::size_t k = 0; k < sorted.size(); ++k) {
      weighted += (2.0 * static_cast<double>(k + 1) - n - 1.0) * sorted[k];
    }
    return total > 0.0 ? weighted / (n * total) : 0.0;
  };
  EXPECT_LT(run(true), run(false));
}

TEST(Protocol, SimulatorMayOutliveProtocol) {
  // The protocol is the calendar agent for rounds, churn arrivals and
  // departures, and injection ticks. Destroying it mid-run detaches it:
  // the simulator keeps draining its calendar without touching freed
  // state, and the kinds that reschedule themselves stop re-arming.
  sim::Simulator sim;
  {
    ProtocolConfig cfg = small_config();
    cfg.churn.enabled = true;
    cfg.churn.arrival_rate = 0.5;
    cfg.churn.mean_lifespan = 40.0;
    cfg.injection.enabled = true;
    cfg.injection.interval_seconds = 10.0;
    StreamingProtocol proto(cfg, sim);
    proto.start();
    sim.run_until(50.0);
    EXPECT_GT(proto.rounds_run(), 0u);
  }
  // Pending rounds/arrivals/departures pop as no-ops and nothing re-arms,
  // so the calendar must fully drain once the longest pending departure
  // has popped (exponential lifespans scheduled before t=50 are all far
  // below 2000 for this seed).
  sim.run_until(2000.0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Protocol, DestroyedProtocolStopsMutatingSharedState) {
  // Two protocols time-share one simulator; killing the first must not
  // disturb the second's rounds.
  sim::Simulator sim;
  auto first = std::make_unique<StreamingProtocol>(small_config(), sim);
  first->start();
  ProtocolConfig cfg2 = small_config();
  cfg2.seed = 123;
  StreamingProtocol second(cfg2, sim);
  second.start();
  sim.run_until(20.0);
  first.reset();
  sim.run_until(60.0);
  EXPECT_EQ(second.rounds_run(), 60u);
  EXPECT_TRUE(second.ledger().audit());
}

TEST(Protocol, RejectsBadConfigs) {
  sim::Simulator sim;
  ProtocolConfig cfg = small_config();
  cfg.initial_peers = 1;
  EXPECT_THROW(StreamingProtocol(cfg, sim), util::PreconditionError);

  cfg = small_config();
  cfg.initial_peers = cfg.max_peers + 1;
  EXPECT_THROW(StreamingProtocol(cfg, sim), util::PreconditionError);

  cfg = small_config();
  cfg.stream_rate = 0.0;
  EXPECT_THROW(StreamingProtocol(cfg, sim), util::PreconditionError);

  cfg = small_config();
  cfg.churn.enabled = true;
  cfg.churn.arrival_rate = 0.0;
  EXPECT_THROW(StreamingProtocol(cfg, sim), util::PreconditionError);

  // The selected pricing and spending rules' ranges, checked once here.
  cfg = small_config();
  cfg.pricing.uniform_price = 0;
  EXPECT_THROW(StreamingProtocol(cfg, sim), util::PreconditionError);
  cfg.pricing.kind = econ::PricingKind::kPoisson;  // uniform price unread
  EXPECT_NO_THROW(StreamingProtocol(cfg, sim));
  cfg.pricing.poisson_mean = 0.0;
  EXPECT_THROW(StreamingProtocol(cfg, sim), util::PreconditionError);
  // A mean whose exp(-mean) is not a normal double: the inverse CDF would
  // stall and every price would be its loop cap.
  cfg.pricing.poisson_mean = 708.0;
  EXPECT_NO_THROW(StreamingProtocol(cfg, sim));
  for (const double mean : {708.5, 746.0, 1000.0, 1e300}) {
    cfg.pricing.poisson_mean = mean;
    EXPECT_THROW(StreamingProtocol(cfg, sim), util::PreconditionError)
        << "poisson mean " << mean;
  }

  cfg = small_config();
  cfg.pricing.kind = econ::PricingKind::kPerSeller;
  cfg.pricing.per_seller_lo = 4;
  cfg.pricing.per_seller_hi = 3;
  EXPECT_THROW(StreamingProtocol(cfg, sim), util::PreconditionError);
  cfg.pricing.per_seller_lo = 0;
  EXPECT_THROW(StreamingProtocol(cfg, sim), util::PreconditionError);

  cfg = small_config();
  cfg.spending.dynamic_threshold = 0.0;
  EXPECT_NO_THROW(StreamingProtocol(cfg, sim));  // fixed: threshold unread
  cfg.spending.dynamic = true;
  EXPECT_THROW(StreamingProtocol(cfg, sim), util::PreconditionError);
}

TEST(Protocol, RejectsEdgeArenasBeyond32BitOffsets) {
  // The overlay's arena is sized from the degree and the join links; a
  // size past 2^32 - 1 cells is refused before it is allocated, where a
  // size_t cast of 1e30 was undefined and 1e12 asked for terabytes.
  sim::Simulator sim;
  for (const double degree : {1e12, 1e30}) {
    ProtocolConfig cfg = small_config();
    cfg.overlay_mean_degree = degree;
    EXPECT_THROW(StreamingProtocol(cfg, sim), util::PreconditionError)
        << "overlay_mean_degree " << degree;
  }
  ProtocolConfig cfg = small_config();
  cfg.churn.enabled = true;
  cfg.churn.join_links = std::size_t{1} << 40;
  EXPECT_THROW(StreamingProtocol(cfg, sim), util::PreconditionError);
}

TEST(Protocol, RejectsStreamHeadsBeyond63Bits) {
  // At 1e30 chunks/s the first round's stream head is far past 2^63, so
  // the time-to-chunk conversion would overflow a ChunkId; the round
  // refuses it instead of running on a wrapped head.
  sim::Simulator sim;
  ProtocolConfig cfg = small_config();
  cfg.stream_rate = 1e30;
  StreamingProtocol proto(cfg, sim);
  proto.start();
  EXPECT_THROW(sim.run_until(3.0), util::PreconditionError);
}

TEST(Protocol, SeedingWalksOnlyChunksAWindowCanHold) {
  // 10^12 chunks are emitted per round, but only the newest window_chunks
  // of them fit any buffer, so only those are seeded and the rounds end.
  sim::Simulator sim;
  ProtocolConfig cfg = small_config();
  cfg.stream_rate = 1e12;
  StreamingProtocol proto(cfg, sim);
  proto.start();
  sim.run_until(3.0);
  EXPECT_EQ(proto.rounds_run(), 3u);
  EXPECT_GT(proto.mean_buffer_fill(), 0.0);  // the newest chunks landed
}

}  // namespace
}  // namespace creditflow::p2p
