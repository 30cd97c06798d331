#include "queueing/closed_network.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/math.hpp"

namespace creditflow::queueing {

using util::kNegInf;
using util::log_add_exp;

ClosedNetwork::ClosedNetwork(std::vector<double> utilization,
                             std::uint64_t total_credits)
    : u_(std::move(utilization)), m_(total_credits) {
  CF_EXPECTS(!u_.empty());
  double max_u = 0.0;
  for (double u : u_) {
    CF_EXPECTS_MSG(u >= 0.0, "utilization must be non-negative");
    max_u = std::max(max_u, u);
  }
  CF_EXPECTS_MSG(max_u > 0.0, "at least one utilization must be positive");

  log_u_.resize(u_.size());
  for (std::size_t i = 0; i < u_.size(); ++i) {
    log_u_[i] = u_[i] > 0.0 ? std::log(u_[i]) : kNegInf;
  }

  // Buzen's convolution in log-space:
  //   g_0(0) = 1, g_0(m>0) = 0
  //   g_n(m) = g_{n-1}(m) + u_n * g_n(m-1)
  log_g_.assign(m_ + 1, kNegInf);
  log_g_[0] = 0.0;
  for (std::size_t n = 0; n < u_.size(); ++n) {
    if (u_[n] == 0.0) continue;  // zero-utilization queue adds nothing
    const double lu = log_u_[n];
    for (std::uint64_t m = 1; m <= m_; ++m) {
      log_g_[m] = log_add_exp(log_g_[m], lu + log_g_[m - 1]);
    }
  }
}

double ClosedNetwork::log_normalization(std::uint64_t m) const {
  CF_EXPECTS(m <= m_);
  return log_g_[m];
}

double ClosedNetwork::tail_probability(std::size_t i, std::uint64_t b) const {
  CF_EXPECTS(i < u_.size());
  if (b == 0) return 1.0;
  if (b > m_) return 0.0;
  if (u_[i] == 0.0) return 0.0;
  const double log_tail = static_cast<double>(b) * log_u_[i] +
                          log_g_[m_ - b] - log_g_[m_];
  return std::exp(log_tail);
}

std::vector<double> ClosedNetwork::marginal(std::size_t i) const {
  CF_EXPECTS(i < u_.size());
  std::vector<double> pmf(m_ + 1, 0.0);
  double prev_tail = 1.0;
  for (std::uint64_t b = 0; b <= m_; ++b) {
    const double next_tail = tail_probability(i, b + 1);
    pmf[b] = std::max(prev_tail - next_tail, 0.0);
    prev_tail = next_tail;
  }
  return pmf;
}

double ClosedNetwork::expected_wealth(std::size_t i) const {
  CF_EXPECTS(i < u_.size());
  if (u_[i] == 0.0) return 0.0;
  // E[B_i] = Σ_{b=1..M} P(B_i >= b), accumulated in the linear domain (each
  // term is a probability in [0,1], so no overflow concern).
  double total = 0.0;
  const double lu = log_u_[i];
  for (std::uint64_t b = 1; b <= m_; ++b) {
    const double log_tail =
        static_cast<double>(b) * lu + log_g_[m_ - b] - log_g_[m_];
    total += std::exp(log_tail);
  }
  return total;
}

double ClosedNetwork::empty_probability(std::size_t i) const {
  return 1.0 - tail_probability(i, 1);
}

double ClosedNetwork::busy_probability(std::size_t i) const {
  return tail_probability(i, 1);
}

void ClosedNetwork::ensure_suffix_table() const {
  if (!log_g_suffix_.empty()) return;
  const std::size_t n = u_.size();
  CF_EXPECTS_MSG((n + 1) * (m_ + 1) <= 64'000'000ULL,
                 "joint sampling table would exceed the memory guard");
  // log_g_suffix_[k][m] = log of the normalization constant over queues
  // k..n-1 with population m; row n is the empty set (only m = 0 possible).
  log_g_suffix_.assign(n + 1, std::vector<double>(m_ + 1, kNegInf));
  log_g_suffix_[n][0] = 0.0;
  for (std::size_t k = n; k-- > 0;) {
    auto& row = log_g_suffix_[k];
    const auto& below = log_g_suffix_[k + 1];
    row = below;
    if (u_[k] == 0.0) continue;
    const double lu = log_u_[k];
    for (std::uint64_t m = 1; m <= m_; ++m) {
      row[m] = log_add_exp(row[m], lu + row[m - 1]);
    }
  }
}

std::vector<std::uint64_t> ClosedNetwork::sample_joint(util::Rng& rng) const {
  ensure_suffix_table();
  const std::size_t n = u_.size();
  std::vector<std::uint64_t> b(n, 0);
  std::uint64_t remaining = m_;
  for (std::size_t k = 0; k + 1 < n && remaining > 0; ++k) {
    // P(B_k = x | remaining) = u_k^x g_{k+1}(remaining-x) / g_k(remaining).
    const double log_norm = log_g_suffix_[k][remaining];
    const double target = rng.uniform();
    double cdf = 0.0;
    std::uint64_t chosen = remaining;
    for (std::uint64_t x = 0; x <= remaining; ++x) {
      double log_p = log_g_suffix_[k + 1][remaining - x] - log_norm;
      if (x > 0) {
        if (u_[k] == 0.0) {
          // No mass beyond x = 0; numeric rounding kept the CDF below the
          // target, so settle on the only feasible value.
          chosen = 0;
          break;
        }
        log_p += static_cast<double>(x) * log_u_[k];
      }
      cdf += std::exp(log_p);
      if (cdf >= target) {
        chosen = x;
        break;
      }
    }
    b[k] = chosen;
    remaining -= chosen;
  }
  if (n > 0) b[n - 1] += remaining;
  return b;
}

}  // namespace creditflow::queueing
