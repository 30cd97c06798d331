// Tests for queueing/open_network: traffic equations, stability, and M/M/1
// expectations.
#include <gtest/gtest.h>

#include "queueing/open_network.hpp"
#include "util/assert.hpp"

namespace creditflow::queueing {
namespace {

TEST(OpenNetwork, SingleQueueMm1) {
  TransferMatrix p(1);
  p.set_row(0, {});
  const OpenNetwork net(p, {1.0}, {2.0});
  EXPECT_TRUE(net.solution().stable);
  EXPECT_NEAR(net.solution().lambda[0], 1.0, 1e-12);
  EXPECT_NEAR(net.solution().rho[0], 0.5, 1e-12);
  EXPECT_NEAR(net.expected_wealth(0), 1.0, 1e-12);
  EXPECT_NEAR(net.empty_probability(0), 0.5, 1e-12);
}

TEST(OpenNetwork, TandemTrafficEquations) {
  TransferMatrix p(2);
  p.set_row(0, {{1, 1.0}});
  p.set_row(1, {});
  const OpenNetwork net(p, {0.6, 0.0}, {1.0, 1.0});
  EXPECT_NEAR(net.solution().lambda[0], 0.6, 1e-12);
  EXPECT_NEAR(net.solution().lambda[1], 0.6, 1e-12);
  EXPECT_TRUE(net.solution().stable);
  // Each queue is M/M/1 at rho = 0.6: E[B] = rho/(1-rho) = 1.5.
  EXPECT_NEAR(net.expected_wealth(0), 1.5, 1e-12);
  EXPECT_NEAR(net.expected_wealth(1), 1.5, 1e-12);
}

TEST(OpenNetwork, FeedbackLoopAmplifiesTraffic) {
  // Queue 0 feeds back to itself with prob 0.5: λ = γ + 0.5 λ => λ = 2γ.
  TransferMatrix p(1);
  p.set_row(0, {{0, 0.5}});
  const OpenNetwork net(p, {0.4}, {2.0});
  EXPECT_NEAR(net.solution().lambda[0], 0.8, 1e-12);
  EXPECT_TRUE(net.solution().stable);
}

TEST(OpenNetwork, InstabilityDetected) {
  TransferMatrix p(1);
  p.set_row(0, {});
  const OpenNetwork net(p, {3.0}, {2.0});
  EXPECT_FALSE(net.solution().stable);
  EXPECT_THROW((void)net.expected_wealth(0), util::PreconditionError);
}

TEST(OpenNetwork, RequiresExternalArrivals) {
  TransferMatrix p(1);
  p.set_row(0, {});
  EXPECT_THROW(OpenNetwork(p, {0.0}, {1.0}), util::PreconditionError);
}

TEST(OpenNetwork, RejectsSuperStochasticRouting) {
  TransferMatrix p(1);
  p.set_row(0, {{0, 1.5}});
  EXPECT_THROW(OpenNetwork(p, {1.0}, {1.0}), util::PreconditionError);
}

TEST(OpenNetwork, ThreeQueueMesh) {
  // Splitting: q0 routes half to q1, half to q2; all exit after.
  TransferMatrix p(3);
  p.set_row(0, {{1, 0.5}, {2, 0.5}});
  p.set_row(1, {});
  p.set_row(2, {});
  const OpenNetwork net(p, {1.0, 0.0, 0.0}, {2.0, 1.0, 1.0});
  EXPECT_NEAR(net.solution().lambda[1], 0.5, 1e-12);
  EXPECT_NEAR(net.solution().lambda[2], 0.5, 1e-12);
  EXPECT_TRUE(net.solution().stable);
  EXPECT_NEAR(net.expected_wealth(1), 1.0, 1e-12);  // rho=0.5
}

}  // namespace
}  // namespace creditflow::queueing
