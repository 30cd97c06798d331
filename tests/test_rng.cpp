// Tests for util/rng: generator determinism, distribution moments, and the
// weighted samplers used by the CTMC and the protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace creditflow::util {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Rng, UniformIndexCoversAllValuesUnbiased) {
  Rng rng(13);
  std::vector<int> counts(7, 0);
  const int n = 140000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(7)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 7.0, n / 7.0 * 0.05);
  }
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(1);
  EXPECT_THROW((void)rng.uniform_index(0), PreconditionError);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, ExponentialRequiresPositiveRate) {
  Rng rng(1);
  EXPECT_THROW((void)rng.exponential(0.0), PreconditionError);
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.3);
}

TEST(Rng, LognormalMeanCv) {
  Rng rng(29);
  double sum = 0.0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) sum += rng.lognormal_mean_cv(10.0, 0.5);
  EXPECT_NEAR(sum / n, 10.0, 0.15);
}

TEST(Rng, LognormalZeroCvIsDeterministic) {
  Rng rng(1);
  EXPECT_DOUBLE_EQ(rng.lognormal_mean_cv(5.0, 0.0), 5.0);
}

TEST(Rng, DiscreteRespectsWeights) {
  Rng rng(53);
  const std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.discrete(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, DiscreteAllZeroThrows) {
  Rng rng(1);
  const std::vector<double> w = {0.0, 0.0};
  EXPECT_THROW((void)rng.discrete(w), PreconditionError);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(59);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(AliasTable, MatchesWeights) {
  Rng rng(61);
  const std::vector<double> w = {0.5, 2.0, 0.0, 1.5};
  AliasTable table{std::span<const double>(w)};
  std::vector<int> counts(4, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[table.sample(rng)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.125, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.5, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[3]) / n, 0.375, 0.01);
}

TEST(AliasTable, SingleElement) {
  Rng rng(1);
  const std::vector<double> w = {42.0};
  AliasTable table{std::span<const double>(w)};
  for (int i = 0; i < 10; ++i) EXPECT_EQ(table.sample(rng), 0u);
}

TEST(FenwickSampler, SampleProportionalToWeights) {
  Rng rng(67);
  FenwickSampler fs(5);
  fs.set(0, 1.0);
  fs.set(2, 3.0);
  fs.set(4, 6.0);
  EXPECT_DOUBLE_EQ(fs.total(), 10.0);
  std::vector<int> counts(5, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[fs.sample(rng)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_EQ(counts[3], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.1, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.3, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[4]) / n, 0.6, 0.01);
}

TEST(FenwickSampler, DynamicUpdates) {
  Rng rng(71);
  FenwickSampler fs(3);
  fs.set(0, 5.0);
  fs.set(1, 5.0);
  fs.set(0, 0.0);  // turn queue 0 off
  for (int i = 0; i < 100; ++i) EXPECT_EQ(fs.sample(rng), 1u);
  fs.set(1, 0.0);
  EXPECT_THROW((void)fs.sample(rng), PreconditionError);
  EXPECT_DOUBLE_EQ(fs.total(), 0.0);
}

TEST(DeriveSeed, PureAndDeterministic) {
  EXPECT_EQ(derive_seed(42, 0), derive_seed(42, 0));
  EXPECT_EQ(derive_seed(0, 7), derive_seed(0, 7));
}

TEST(DeriveSeed, AdjacentIndicesDecorrelated) {
  // Streams seeded from consecutive run indices must not overlap: compare
  // the first draws of many adjacent derivations.
  std::vector<std::uint64_t> firsts;
  for (std::uint64_t k = 0; k < 256; ++k) {
    Rng rng(derive_seed(2012, k));
    firsts.push_back(rng.next_u64());
  }
  std::sort(firsts.begin(), firsts.end());
  EXPECT_EQ(std::adjacent_find(firsts.begin(), firsts.end()), firsts.end());
}

TEST(DeriveSeed, AdjacentBasesDecorrelated) {
  // base+1 with index k must not collide with base at index k+1 (the naive
  // base+index addition would); the double finalization prevents it.
  EXPECT_NE(derive_seed(100, 1), derive_seed(101, 0));
  EXPECT_NE(derive_seed(100, 0), derive_seed(100, 1));
  int low_bit_agreement = 0;
  for (std::uint64_t k = 0; k < 64; ++k) {
    if ((derive_seed(7, k) & 1u) == (derive_seed(8, k) & 1u)) {
      ++low_bit_agreement;
    }
  }
  EXPECT_GT(low_bit_agreement, 8);   // not anti-correlated either
  EXPECT_LT(low_bit_agreement, 56);  // ~32 expected for independent bits
}

TEST(DeriveSeed, DistinctSeedsYieldDivergentStreams) {
  Rng a(derive_seed(9, 0));
  Rng b(derive_seed(9, 1));
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

}  // namespace
}  // namespace creditflow::util
