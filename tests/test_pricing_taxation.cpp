// Tests for econ/pricing and econ/taxation.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>
#include <utility>

#include "econ/pricing.hpp"
#include "econ/taxation.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace creditflow::econ {
namespace {

PricingParams poisson(double mean, Credits min_price = 0) {
  PricingParams params;
  params.kind = PricingKind::kPoisson;
  params.poisson_mean = mean;
  params.poisson_min = min_price;
  return params;
}

TEST(UniformPricing, FlatEverywhere) {
  PricingParams params;
  params.uniform_price = 3;
  EXPECT_EQ(price(params, 0, 0), 3u);
  EXPECT_EQ(price(params, 99, 12345), 3u);
}

TEST(PoissonPricing, DeterministicPerPair) {
  const PricingParams p = poisson(1.0);
  EXPECT_EQ(price(p, 4, 77), price(p, 4, 77));
  EXPECT_EQ(price(p, 9, 1), price(p, 9, 1));
}

TEST(PoissonPricing, EmpiricalMeanMatches) {
  const PricingParams p = poisson(1.0);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(price(p, static_cast<std::uint32_t>(i % 500),
                                     static_cast<std::uint64_t>(i)));
  }
  EXPECT_NEAR(sum / n, 1.0, 0.02);
}

TEST(PoissonPricing, ZeroPricesOccurWithoutFloor) {
  const PricingParams p = poisson(1.0);
  int zeros = 0;
  for (int i = 0; i < 2000; ++i) {
    if (price(p, 1, static_cast<std::uint64_t>(i)) == 0) ++zeros;
  }
  // P(X=0) = e^-1 ~ 0.37.
  EXPECT_GT(zeros, 500);
  EXPECT_LT(zeros, 1000);
}

TEST(PoissonPricing, FloorRespected) {
  const PricingParams p = poisson(1.0, /*min_price=*/1);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GE(price(p, 2, static_cast<std::uint64_t>(i)), 1u);
  }
}

TEST(PerSellerPricing, StablePerSellerVariedAcross) {
  PricingParams p;
  p.kind = PricingKind::kPerSeller;
  p.per_seller_lo = 1;
  p.per_seller_hi = 5;
  const auto first = price(p, 3, 0);
  for (int c = 1; c < 50; ++c) {
    EXPECT_EQ(price(p, 3, static_cast<std::uint64_t>(c)), first);
  }
  bool varied = false;
  for (std::uint32_t s = 0; s < 50 && !varied; ++s) {
    varied = price(p, s, 0) != first;
    EXPECT_GE(price(p, s, 0), 1u);
    EXPECT_LE(price(p, s, 0), 5u);
  }
  EXPECT_TRUE(varied);
}

TEST(LinearSizePricing, PricesOneToFourAllSellersAgreeOn) {
  PricingParams p;
  p.kind = PricingKind::kLinearSize;
  std::array<int, 5> seen{};
  for (int c = 0; c < 200; ++c) {
    const auto v = price(p, 0, static_cast<std::uint64_t>(c));
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 4u);
    ++seen[v];
    // All sellers agree on a chunk's size-derived price.
    EXPECT_EQ(price(p, 7, static_cast<std::uint64_t>(c)), v);
  }
  for (int v = 1; v <= 4; ++v) EXPECT_GT(seen[v], 0) << "price " << v;
}

TEST(Pricing, HashedPricesArePinned) {
  // Every kind's prices over 64 sellers x 64 chunks, hashed with the
  // default parameters (hash salt 0x9e3779b97f4a7c15 for every hashed
  // kind), so a change of salt, hash mix or inverse CDF shows here before
  // it moves any market.
  const std::pair<PricingKind, std::uint64_t> kPins[] = {
      {PricingKind::kUniform, 0x6ad5b54088136325ULL},
      {PricingKind::kPoisson, 0x5a6c64914c9fc0a0ULL},
      {PricingKind::kPerSeller, 0x4a4f302ec1724725ULL},
      {PricingKind::kLinearSize, 0x2ffb0e980c6be2ecULL},
  };
  for (const auto& [kind, pin] : kPins) {
    PricingParams params;
    params.kind = kind;
    std::string text;
    for (std::uint32_t s = 0; s < 64; ++s) {
      for (std::uint64_t c = 0; c < 64; ++c) {
        text += std::to_string(price(params, s, c * 977 + s)) + ' ';
      }
    }
    EXPECT_EQ(util::fnv1a64(text), pin) << "kind " << static_cast<int>(kind);
  }
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
