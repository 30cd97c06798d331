// CreditFlow: summary statistics, histograms and time series used by the
// simulator's metrics layer and the benchmark harnesses.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace creditflow::util {

/// Fixed-width binned histogram over [lo, hi); out-of-range samples are
/// clamped into the edge bins so mass is never silently dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x, double weight = 1.0);

  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }
  [[nodiscard]] double bin_width() const;
  [[nodiscard]] double count(std::size_t bin) const;
  [[nodiscard]] double total() const { return total_; }
  /// Normalized density estimate per bin (integrates to ~1).
  [[nodiscard]] std::vector<double> density() const;

 private:
  double lo_;
  double hi_;
  std::vector<double> counts_;
  double total_ = 0.0;
};

/// Power-of-two bucketed histogram of non-negative integer samples
/// (latencies in µs/ns, candidate-set sizes, queue depths). Bucket 0 holds
/// zeros; bucket b ≥ 1 holds [2^(b-1), 2^b). Fixed inline storage, so
/// add() is allocation-free and a registry can hand out stable cells; the
/// trade-off is ~2× worst-case relative error on quantile readouts, which
/// is the right deal for order-of-magnitude observability.
class Log2Histogram {
 public:
  /// Bucket 0 plus one bucket per magnitude of a 64-bit sample.
  static constexpr std::size_t kBuckets = 65;

  void add(std::uint64_t x) {
    ++counts_[bucket_of(x)];
    ++count_;
    sum_ += x;
    if (count_ == 1 || x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t x) {
    return x == 0 ? 0 : static_cast<std::size_t>(std::bit_width(x));
  }
  /// Inclusive lower edge of a bucket.
  [[nodiscard]] static std::uint64_t bucket_lo(std::size_t bucket);
  /// Exclusive upper edge (saturates at UINT64_MAX for the top bucket).
  [[nodiscard]] static std::uint64_t bucket_hi(std::size_t bucket);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t bucket) const {
    return counts_[bucket];
  }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }

  /// Approximate quantile (q in [0,1]): linear interpolation within the
  /// bucket where the cumulative count crosses q·count, clamped to the
  /// observed [min, max]. 0 on an empty histogram.
  [[nodiscard]] double approx_quantile(double q) const;

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// A (time, value) series with basic reductions; the metrics recorder and the
/// figure benches exchange these.
class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(std::string name) : name_(std::move(name)) {}

  void add(double t, double v);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t size() const { return t_.size(); }
  [[nodiscard]] bool empty() const { return t_.empty(); }
  [[nodiscard]] std::span<const double> times() const { return t_; }
  [[nodiscard]] std::span<const double> values() const { return v_; }
  [[nodiscard]] double time_at(std::size_t i) const;
  [[nodiscard]] double value_at(std::size_t i) const;
  [[nodiscard]] double last_value() const;
  /// Mean of values over the last `fraction` of the time span (for
  /// "converged value" readouts); fraction in (0, 1].
  [[nodiscard]] double tail_mean(double fraction) const;
  /// Largest |v(t2)-v(t1)| between consecutive points in the tail window;
  /// a small value indicates the series has settled.
  [[nodiscard]] double tail_oscillation(double fraction) const;

 private:
  std::string name_;
  std::vector<double> t_;
  std::vector<double> v_;
};

}  // namespace creditflow::util
