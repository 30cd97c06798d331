#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace creditflow::util {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0.0) {
  CF_EXPECTS(lo < hi);
  CF_EXPECTS(bins > 0);
}

void Histogram::add(double x, double weight) {
  CF_EXPECTS(weight >= 0.0);
  const double w = bin_width();
  auto idx = static_cast<std::ptrdiff_t>(std::floor((x - lo_) / w));
  idx = std::clamp<std::ptrdiff_t>(
      idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(idx)] += weight;
  total_ += weight;
}

double Histogram::bin_width() const {
  return (hi_ - lo_) / static_cast<double>(counts_.size());
}

double Histogram::count(std::size_t bin) const {
  CF_EXPECTS(bin < counts_.size());
  return counts_[bin];
}

std::vector<double> Histogram::density() const {
  std::vector<double> d(counts_.size(), 0.0);
  if (total_ <= 0.0) return d;
  const double norm = total_ * bin_width();
  for (std::size_t i = 0; i < counts_.size(); ++i) d[i] = counts_[i] / norm;
  return d;
}

void TimeSeries::add(double t, double v) {
  CF_EXPECTS_MSG(t_.empty() || t >= t_.back(), "time must be non-decreasing");
  t_.push_back(t);
  v_.push_back(v);
}

double TimeSeries::time_at(std::size_t i) const {
  CF_EXPECTS(i < t_.size());
  return t_[i];
}

double TimeSeries::value_at(std::size_t i) const {
  CF_EXPECTS(i < v_.size());
  return v_[i];
}

double TimeSeries::last_value() const {
  CF_EXPECTS(!v_.empty());
  return v_.back();
}

double TimeSeries::tail_mean(double fraction) const {
  CF_EXPECTS(fraction > 0.0 && fraction <= 1.0);
  CF_EXPECTS(!empty());
  const double t_start =
      t_.back() - fraction * (t_.back() - t_.front());
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < t_.size(); ++i) {
    if (t_[i] >= t_start) {
      sum += v_[i];
      ++n;
    }
  }
  return n == 0 ? v_.back() : sum / static_cast<double>(n);
}

std::uint64_t Log2Histogram::bucket_lo(std::size_t bucket) {
  CF_EXPECTS(bucket < kBuckets);
  return bucket == 0 ? 0 : std::uint64_t{1} << (bucket - 1);
}

std::uint64_t Log2Histogram::bucket_hi(std::size_t bucket) {
  CF_EXPECTS(bucket < kBuckets);
  if (bucket == 0) return 1;
  if (bucket == kBuckets - 1) return ~std::uint64_t{0};
  return std::uint64_t{1} << bucket;
}

double Log2Histogram::approx_quantile(double q) const {
  CF_EXPECTS(q >= 0.0 && q <= 1.0);
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (counts_[b] == 0) continue;
    const std::uint64_t next = seen + counts_[b];
    if (static_cast<double>(next) >= target) {
      const double lo = static_cast<double>(bucket_lo(b));
      const double hi = static_cast<double>(bucket_hi(b));
      const double within =
          counts_[b] == 0
              ? 0.0
              : (target - static_cast<double>(seen)) /
                    static_cast<double>(counts_[b]);
      const double est = lo + within * (hi - lo);
      return std::clamp(est, static_cast<double>(min_),
                        static_cast<double>(max_));
    }
    seen = next;
  }
  return static_cast<double>(max_);
}

double TimeSeries::tail_oscillation(double fraction) const {
  CF_EXPECTS(fraction > 0.0 && fraction <= 1.0);
  CF_EXPECTS(!empty());
  const double t_start = t_.back() - fraction * (t_.back() - t_.front());
  double worst = 0.0;
  bool prev_set = false;
  double prev = 0.0;
  for (std::size_t i = 0; i < t_.size(); ++i) {
    if (t_[i] < t_start) continue;
    if (prev_set) worst = std::max(worst, std::abs(v_[i] - prev));
    prev = v_[i];
    prev_set = true;
  }
  return worst;
}

}  // namespace creditflow::util
