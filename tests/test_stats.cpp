// Tests for util/stats: histograms and time series reductions.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace creditflow::util {
namespace {

TEST(Histogram, CountsAndDensity) {
  Histogram h(0.0, 10.0, 5);
  for (double x : {0.5, 1.5, 1.7, 5.0, 9.9}) h.add(x);
  EXPECT_DOUBLE_EQ(h.total(), 5.0);
  EXPECT_DOUBLE_EQ(h.count(0), 3.0);  // 0.5, 1.5, 1.7 in [0,2)
  EXPECT_DOUBLE_EQ(h.count(2), 1.0);  // 5.0 in [4,6)
  EXPECT_DOUBLE_EQ(h.count(4), 1.0);  // 9.9 in [8,10)
  const auto d = h.density();
  double mass = 0.0;
  for (double di : d) mass += di * h.bin_width();
  EXPECT_NEAR(mass, 1.0, 1e-12);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(7.0);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(3), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 2.0);
}

TEST(Histogram, WeightedAdds) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.25, 3.0);
  EXPECT_DOUBLE_EQ(h.count(0), 3.0);
  EXPECT_DOUBLE_EQ(h.total(), 3.0);
}

TEST(Log2Histogram, BucketBoundariesFollowBitWidth) {
  EXPECT_EQ(Log2Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Log2Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Log2Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Log2Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Log2Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Log2Histogram::bucket_of(8), 4u);
  EXPECT_EQ(Log2Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Log2Histogram::bucket_of(~0ULL), 64u);
  // Every sample lands inside [bucket_lo, bucket_hi) of its own bucket.
  for (std::uint64_t x : {0ULL, 1ULL, 2ULL, 3ULL, 5ULL, 1000ULL, 1ULL << 40}) {
    const std::size_t b = Log2Histogram::bucket_of(x);
    EXPECT_GE(x, Log2Histogram::bucket_lo(b)) << x;
    EXPECT_LT(x, Log2Histogram::bucket_hi(b)) << x;
  }
}

TEST(Log2Histogram, CountsSumMinMax) {
  Log2Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.approx_quantile(0.5), 0.0);
  for (std::uint64_t x : {3ULL, 3ULL, 5ULL, 9ULL, 0ULL}) h.add(x);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 20.0);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 9u);
  EXPECT_EQ(h.bucket_count(0), 1u);  // the zero
  EXPECT_EQ(h.bucket_count(2), 2u);  // 3, 3 in [2,4)
  EXPECT_EQ(h.bucket_count(3), 1u);  // 5 in [4,8)
  EXPECT_EQ(h.bucket_count(4), 1u);  // 9 in [8,16)
}

TEST(Log2Histogram, QuantilesClampToObservedRange) {
  Log2Histogram h;
  for (std::uint64_t i = 1; i <= 100; ++i) h.add(i);
  EXPECT_DOUBLE_EQ(h.approx_quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.approx_quantile(1.0), 100.0);
  // Log-bucketed medians carry up to ~2x relative error; pin the band.
  const double p50 = h.approx_quantile(0.5);
  EXPECT_GE(p50, 25.0);
  EXPECT_LE(p50, 100.0);
  const double p90 = h.approx_quantile(0.9);
  EXPECT_GE(p90, p50);
}

TEST(TimeSeries, AddAndAccess) {
  TimeSeries ts("x");
  ts.add(0.0, 1.0);
  ts.add(1.0, 2.0);
  ts.add(2.0, 3.0);
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_DOUBLE_EQ(ts.time_at(1), 1.0);
  EXPECT_DOUBLE_EQ(ts.value_at(2), 3.0);
  EXPECT_DOUBLE_EQ(ts.last_value(), 3.0);
  EXPECT_EQ(ts.name(), "x");
}

TEST(TimeSeries, RejectsTimeRegression) {
  TimeSeries ts;
  ts.add(5.0, 0.0);
  EXPECT_THROW(ts.add(4.0, 0.0), PreconditionError);
  ts.add(5.0, 1.0);  // equal time is allowed
}

TEST(TimeSeries, TailMean) {
  TimeSeries ts;
  for (int i = 0; i <= 10; ++i) ts.add(i, i < 8 ? 0.0 : 10.0);
  // Tail fraction 0.2 covers t >= 8: values 10,10,10.
  EXPECT_DOUBLE_EQ(ts.tail_mean(0.2), 10.0);
  // Full window mean.
  EXPECT_NEAR(ts.tail_mean(1.0), 30.0 / 11.0, 1e-12);
}

TEST(TimeSeries, TailOscillationDetectsSettling) {
  TimeSeries settled;
  TimeSeries swinging;
  for (int i = 0; i <= 100; ++i) {
    settled.add(i, i < 50 ? static_cast<double>(i) : 50.0);
    swinging.add(i, i % 2 == 0 ? 0.0 : 8.0);
  }
  EXPECT_DOUBLE_EQ(settled.tail_oscillation(0.3), 0.0);
  EXPECT_DOUBLE_EQ(swinging.tail_oscillation(0.3), 8.0);
}

}  // namespace
}  // namespace creditflow::util
