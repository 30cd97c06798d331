// Tests for queueing/ctmc: the Gillespie simulator must conserve credits
// (closed), respect routing, and converge to the product-form equilibrium
// that Buzen predicts.
#include <gtest/gtest.h>

#include <numeric>

#include "queueing/closed_network.hpp"
#include "queueing/ctmc.hpp"
#include "queueing/equilibrium.hpp"

namespace creditflow::queueing {
namespace {

TransferMatrix ring(std::size_t n) {
  TransferMatrix p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p.set_row(i, {{static_cast<std::uint32_t>((i + 1) % n), 1.0}});
  }
  return p;
}

TEST(ClosedCtmc, ConservesCredits) {
  ClosedCtmcConfig cfg;
  cfg.service_rates = {1.0, 2.0, 0.5, 1.5};
  cfg.initial_credits = {10, 0, 5, 5};
  cfg.horizon = 50.0;
  cfg.seed = 3;
  ClosedCtmcSimulator sim(ring(4), cfg);
  std::uint64_t snapshots = 0;
  sim.run([&](const CtmcSnapshot& snap) {
    ++snapshots;
    const auto total = std::accumulate(snap.credits.begin(),
                                       snap.credits.end(), std::uint64_t{0});
    EXPECT_EQ(total, 20u);
  });
  EXPECT_GT(snapshots, 0u);
  EXPECT_EQ(sim.total_credits(), 20u);
}

TEST(ClosedCtmc, ExecutesJumps) {
  ClosedCtmcConfig cfg;
  cfg.service_rates = {1.0, 1.0};
  cfg.initial_credits = {5, 5};
  cfg.horizon = 100.0;
  ClosedCtmcSimulator sim(ring(2), cfg);
  const auto jumps = sim.run(nullptr);
  // Expected jumps ~ horizon * total busy rate ~ 100 * 2 = 200.
  EXPECT_GT(jumps, 50u);
  EXPECT_LT(jumps, 1000u);
}

TEST(ClosedCtmc, SpendRatesApproachServiceRatesWhenBusy) {
  // With equal rates and plenty of credits both ring queues stay busy, so
  // each departure rate approaches its μ.
  ClosedCtmcConfig cfg;
  cfg.service_rates = {2.0, 2.0};
  cfg.initial_credits = {500, 500};
  cfg.horizon = 400.0;
  cfg.seed = 11;
  ClosedCtmcSimulator sim(ring(2), cfg);
  (void)sim.run(nullptr);
  const auto rates = sim.average_spend_rates();
  EXPECT_NEAR(rates[0], 2.0, 0.2);
  EXPECT_NEAR(rates[1], 2.0, 0.2);
}

TEST(ClosedCtmc, BottleneckGovernsRingThroughput) {
  // Asymmetric ring: the slow queue (μ=1) is the bottleneck; in the long
  // run both queues' throughputs converge to it, with the fast queue mostly
  // idle (credits pile at the slow queue).
  ClosedCtmcConfig cfg;
  cfg.service_rates = {1.0, 3.0};
  cfg.initial_credits = {50, 50};
  cfg.horizon = 4000.0;
  cfg.seed = 13;
  ClosedCtmcSimulator sim(ring(2), cfg);
  (void)sim.run(nullptr);
  const auto rates = sim.average_spend_rates();
  EXPECT_NEAR(rates[0], 1.0, 0.1);
  EXPECT_NEAR(rates[1], 1.0, 0.15);
  // The slow queue holds nearly all credits at the end.
  EXPECT_GT(sim.credits()[0], 80u);
}

TEST(ClosedCtmc, EquilibriumMatchesBuzenSymmetric) {
  // Complete-graph routing with equal rates: long-run mean wealth per queue
  // must approach M/N.
  const std::size_t n = 5;
  const std::uint64_t per_queue = 8;
  TransferMatrix p(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<RoutingEntry> row;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      row.push_back({static_cast<std::uint32_t>(j),
                     1.0 / static_cast<double>(n - 1)});
    }
    p.set_row(i, std::move(row));
  }
  ClosedCtmcConfig cfg;
  cfg.service_rates.assign(n, 1.0);
  cfg.initial_credits.assign(n, per_queue);
  cfg.horizon = 20000.0;
  cfg.snapshot_interval = 5.0;
  cfg.seed = 17;
  ClosedCtmcSimulator sim(p, cfg);

  std::vector<double> time_avg(n, 0.0);
  std::uint64_t count = 0;
  sim.run([&](const CtmcSnapshot& snap) {
    if (snap.time < 2000.0) return;  // warmup
    for (std::size_t i = 0; i < n; ++i)
      time_avg[i] += static_cast<double>(snap.credits[i]);
    ++count;
  });
  ASSERT_GT(count, 100u);
  // Queue-length snapshots are autocorrelated; allow a generous band around
  // the exact symmetric mean M/N.
  for (std::size_t i = 0; i < n; ++i) {
    time_avg[i] /= static_cast<double>(count);
    EXPECT_NEAR(time_avg[i], static_cast<double>(per_queue),
                0.35 * static_cast<double>(per_queue));
  }
}

TEST(ClosedCtmc, AsymmetricEquilibriumMatchesBuzen) {
  // Two queues, unequal service rates: u = (1, mu1/mu2·(λ1/λ2)) — with ring
  // routing λ equal, so u2 = μ1/μ2. Compare long-run averages to Buzen.
  ClosedCtmcConfig cfg;
  cfg.service_rates = {1.0, 2.0};
  cfg.initial_credits = {10, 10};
  cfg.horizon = 30000.0;
  cfg.snapshot_interval = 5.0;
  cfg.seed = 23;
  ClosedCtmcSimulator sim(ring(2), cfg);
  std::vector<double> avg(2, 0.0);
  std::uint64_t count = 0;
  sim.run([&](const CtmcSnapshot& snap) {
    if (snap.time < 3000.0) return;
    for (std::size_t i = 0; i < 2; ++i)
      avg[i] += static_cast<double>(snap.credits[i]);
    ++count;
  });
  for (auto& a : avg) a /= static_cast<double>(count);

  const ClosedNetwork net({1.0, 0.5}, 20);
  EXPECT_NEAR(avg[0], net.expected_wealth(0), 1.5);
  EXPECT_NEAR(avg[1], net.expected_wealth(1), 1.5);
}

TEST(ClosedCtmc, RejectsBadConfig) {
  ClosedCtmcConfig cfg;
  cfg.service_rates = {1.0};
  cfg.initial_credits = {0};  // zero credits in a closed network
  EXPECT_THROW(ClosedCtmcSimulator(ring(1), cfg), util::PreconditionError);
}

}  // namespace
}  // namespace creditflow::queueing
