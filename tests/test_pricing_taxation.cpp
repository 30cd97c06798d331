// Tests for econ/pricing and econ/taxation.
#include <gtest/gtest.h>

#include <cmath>

#include "econ/pricing.hpp"
#include "util/assert.hpp"
#include "econ/taxation.hpp"

namespace creditflow::econ {
namespace {

TEST(UniformPricing, FlatEverywhere) {
  UniformPricing p(3);
  EXPECT_EQ(p.price(0, 0), 3u);
  EXPECT_EQ(p.price(99, 12345), 3u);
  EXPECT_DOUBLE_EQ(p.mean_price(), 3.0);
}

TEST(UniformPricing, RejectsZeroPrice) {
  EXPECT_THROW(UniformPricing(0), util::PreconditionError);
}

TEST(PoissonPricing, DeterministicPerPair) {
  PoissonPricing p(1.0);
  EXPECT_EQ(p.price(4, 77), p.price(4, 77));
  EXPECT_EQ(p.price(9, 1), p.price(9, 1));
}

TEST(PoissonPricing, EmpiricalMeanMatches) {
  PoissonPricing p(1.0);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(
        p.price(static_cast<std::uint32_t>(i % 500),
                static_cast<std::uint64_t>(i)));
  }
  EXPECT_NEAR(sum / n, 1.0, 0.02);
  EXPECT_DOUBLE_EQ(p.mean_price(), 1.0);
}

TEST(PoissonPricing, ZeroPricesOccurWithoutFloor) {
  PoissonPricing p(1.0);
  int zeros = 0;
  for (int i = 0; i < 2000; ++i) {
    if (p.price(1, static_cast<std::uint64_t>(i)) == 0) ++zeros;
  }
  // P(X=0) = e^-1 ~ 0.37.
  EXPECT_GT(zeros, 500);
  EXPECT_LT(zeros, 1000);
}

TEST(PoissonPricing, FloorRespected) {
  PoissonPricing p(1.0, /*min_price=*/1);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GE(p.price(2, static_cast<std::uint64_t>(i)), 1u);
  }
  EXPECT_GT(p.mean_price(), 1.0);  // flooring raises the mean above 1
}

TEST(PerSellerPricing, StablePerSellerVariedAcross) {
  PerSellerPricing p(1, 5);
  const auto first = p.price(3, 0);
  for (int c = 1; c < 50; ++c) {
    EXPECT_EQ(p.price(3, static_cast<std::uint64_t>(c)), first);
  }
  bool varied = false;
  for (std::uint32_t s = 0; s < 50 && !varied; ++s) {
    varied = p.price(s, 0) != first;
  }
  EXPECT_TRUE(varied);
  EXPECT_DOUBLE_EQ(p.mean_price(), 3.0);
}

TEST(LinearSizePricing, WithinLinearRange) {
  LinearSizePricing p(2, 3, 4);
  for (int c = 0; c < 200; ++c) {
    const auto v = p.price(0, static_cast<std::uint64_t>(c));
    EXPECT_GE(v, 2u);
    EXPECT_LE(v, 2u + 3u * 3u);
    // All sellers agree on a chunk's size-derived price.
    EXPECT_EQ(p.price(7, static_cast<std::uint64_t>(c)), v);
  }
}

TEST(MakePricing, DispatchesAllKinds) {
  PricingParams params;
  params.kind = PricingKind::kUniform;
  EXPECT_NE(make_pricing(params), nullptr);
  params.kind = PricingKind::kPoisson;
  EXPECT_NE(make_pricing(params), nullptr);
  params.kind = PricingKind::kPerSeller;
  EXPECT_NE(make_pricing(params), nullptr);
  params.kind = PricingKind::kLinearSize;
  EXPECT_NE(make_pricing(params), nullptr);
}

TEST(Taxation, DisabledCollectsNothing) {
  TaxationEngine tax(TaxPolicy{}, 8);
  EXPECT_EQ(tax.on_income(1, 100, 1000), 0u);
  EXPECT_EQ(tax.treasury(), 0u);
}

TEST(Taxation, BelowThresholdUntaxed) {
  TaxPolicy policy{true, 0.2, 50.0};
  TaxationEngine tax(policy, 8);
  EXPECT_EQ(tax.on_income(1, 10, 40), 0u);  // wealth 40 <= 50
  EXPECT_EQ(tax.treasury(), 0u);
}

TEST(Taxation, CollectsProportionOfIncome) {
  TaxPolicy policy{true, 0.5, 10.0};
  TaxationEngine tax(policy, 8);
  // Income 4, rate 0.5 -> 2 units collected immediately.
  EXPECT_EQ(tax.on_income(1, 4, 100), 2u);
  EXPECT_EQ(tax.treasury(), 2u);
  EXPECT_EQ(tax.total_collected(), 2u);
}

TEST(Taxation, FractionalLiabilityAccrues) {
  TaxPolicy policy{true, 0.1, 0.0};
  TaxationEngine tax(policy, 8);
  std::uint64_t collected = 0;
  for (int i = 0; i < 10; ++i) {
    collected += tax.on_income(7, 1, 1000);  // 0.1 per sale
  }
  EXPECT_EQ(collected, 1u);  // 10 * 0.1 = 1 whole credit
}

TEST(Taxation, FractionalDebtIsPerPeer) {
  TaxPolicy policy{true, 0.5, 0.0};
  TaxationEngine tax(policy, 8);
  EXPECT_EQ(tax.on_income(1, 1, 100), 0u);  // 0.5 accrued for peer 1
  EXPECT_EQ(tax.on_income(2, 1, 100), 0u);  // 0.5 accrued for peer 2
  EXPECT_EQ(tax.on_income(1, 1, 100), 1u);  // peer 1 reaches 1.0
  EXPECT_EQ(tax.on_income(2, 1, 100), 1u);
}

TEST(Taxation, RedistributionWhenTreasuryFull) {
  TaxPolicy policy{true, 0.5, 0.0};
  TaxationEngine tax(policy, 8);
  (void)tax.on_income(1, 20, 100);  // 10 collected
  EXPECT_FALSE(tax.try_redistribute(11));
  EXPECT_TRUE(tax.try_redistribute(10));
  EXPECT_EQ(tax.treasury(), 0u);
  EXPECT_EQ(tax.total_redistributed(), 10u);
}

TEST(Taxation, CollectionCappedByBalance) {
  TaxPolicy policy{true, 0.9, 0.0};
  TaxationEngine tax(policy, 8);
  // Income 100 at rate 0.9 would be 90, but the peer only holds 5 now.
  EXPECT_EQ(tax.on_income(1, 100, 5), 5u);
}

TEST(Taxation, ForgetPeerDropsDebt) {
  TaxPolicy policy{true, 0.5, 0.0};
  TaxationEngine tax(policy, 8);
  (void)tax.on_income(1, 1, 100);  // 0.5 accrued
  tax.forget_peer(1);
  EXPECT_EQ(tax.on_income(1, 1, 100), 0u);  // starts at 0.5 again
}

TEST(Taxation, RejectsInvalidPolicy) {
  EXPECT_THROW(TaxationEngine(TaxPolicy{true, 1.5, 0.0}, 8),
               util::PreconditionError);
  EXPECT_THROW(TaxationEngine(TaxPolicy{true, -0.1, 0.0}, 8),
               util::PreconditionError);
}

}  // namespace
}  // namespace creditflow::econ
