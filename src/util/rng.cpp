#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace creditflow::util {

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
  // xoshiro requires a non-zero state; SplitMix64 makes all-zero output
  // astronomically unlikely, but guard anyway.
  if (std::all_of(s_.begin(), s_.end(), [](auto w) { return w == 0; })) {
    s_[0] = 0x1234567890abcdefULL;
  }
}

double Rng::uniform(double lo, double hi) {
  CF_EXPECTS(lo < hi);
  return lo + (hi - lo) * uniform();
}

double Rng::exponential(double rate) {
  CF_EXPECTS(rate > 0.0);
  double u = uniform();
  // Avoid log(0): uniform() < 1 always, but 1-u may round to 0 only if u==1.
  return -std::log1p(-u) / rate;
}

double Rng::normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= std::numeric_limits<double>::min());
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

double Rng::lognormal_mean_cv(double mean, double cv) {
  CF_EXPECTS(mean > 0.0 && cv >= 0.0);
  if (cv == 0.0) return mean;
  const double sigma2 = std::log1p(cv * cv);
  const double mu = std::log(mean) - 0.5 * sigma2;
  return std::exp(normal(mu, std::sqrt(sigma2)));
}

std::size_t Rng::discrete(std::span<const double> weights) {
  CF_EXPECTS(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    CF_EXPECTS_MSG(w >= 0.0, "negative weight");
    total += w;
  }
  CF_EXPECTS_MSG(total > 0.0, "all weights zero");
  double u = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u <= 0.0) return i;
  }
  // Rounding may leave u marginally positive; return last positive weight.
  for (std::size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return i;
  }
  return weights.size() - 1;
}

AliasTable::AliasTable(std::span<const double> weights) {
  CF_EXPECTS(!weights.empty());
  const std::size_t n = weights.size();
  double total = 0.0;
  for (double w : weights) {
    CF_EXPECTS_MSG(w >= 0.0, "negative weight");
    total += w;
  }
  CF_EXPECTS_MSG(total > 0.0, "all weights zero");

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i)
    scaled[i] = weights[i] * static_cast<double>(n) / total;

  std::vector<std::size_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    const std::size_t s = small.back();
    small.pop_back();
    const std::size_t l = large.back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (std::size_t i : large) prob_[i] = 1.0;
  for (std::size_t i : small) prob_[i] = 1.0;  // numeric leftovers
}

std::size_t AliasTable::sample(Rng& rng) const {
  CF_EXPECTS(!prob_.empty());
  const std::size_t i = rng.uniform_index(prob_.size());
  return rng.uniform() < prob_[i] ? i : alias_[i];
}

FenwickSampler::FenwickSampler(std::size_t n) { resize(n); }

void FenwickSampler::resize(std::size_t n) {
  tree_.assign(n + 1, 0.0);
  weights_.assign(n, 0.0);
}

void FenwickSampler::set(std::size_t i, double w) {
  CF_EXPECTS(i < weights_.size());
  CF_EXPECTS_MSG(w >= 0.0, "negative weight");
  const double delta = w - weights_[i];
  if (delta == 0.0) return;
  weights_[i] = w;
  for (std::size_t j = i + 1; j < tree_.size(); j += j & (~j + 1)) {
    tree_[j] += delta;
  }
}

double FenwickSampler::total() const {
  double sum = 0.0;
  // Total = prefix sum over the whole array.
  std::size_t j = weights_.size();
  while (j > 0) {
    sum += tree_[j];
    j -= j & (~j + 1);
  }
  return sum;
}

std::size_t FenwickSampler::upper_bound(double x) const {
  // Find smallest index i such that prefix_sum(i+1) > x.
  std::size_t pos = 0;
  std::size_t bitmask = 1;
  while ((bitmask << 1) <= weights_.size()) bitmask <<= 1;
  for (; bitmask != 0; bitmask >>= 1) {
    const std::size_t next = pos + bitmask;
    if (next < tree_.size() && tree_[next] <= x) {
      x -= tree_[next];
      pos = next;
    }
  }
  return pos;  // 0-based index of the selected weight
}

std::size_t FenwickSampler::sample(Rng& rng) const {
  const double t = total();
  CF_EXPECTS_MSG(t > 0.0, "cannot sample from all-zero weights");
  double x = rng.uniform() * t;
  std::size_t i = upper_bound(x);
  if (i >= weights_.size()) i = weights_.size() - 1;
  // Skip any zero-weight landing caused by floating point edge cases.
  while (i > 0 && weights_[i] == 0.0) --i;
  if (weights_[i] == 0.0) {
    for (std::size_t j = 0; j < weights_.size(); ++j) {
      if (weights_[j] > 0.0) return j;
    }
  }
  return i;
}

}  // namespace creditflow::util
