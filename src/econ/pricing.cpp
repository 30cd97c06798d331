#include "econ/pricing.hpp"

#include <cmath>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace creditflow::econ {

namespace {

/// Stable 64-bit mix of (seller, chunk) → uniform double in [0,1).
double hashed_uniform(std::uint32_t seller, std::uint64_t chunk) {
  util::SplitMix64 sm(0x9e3779b97f4a7c15ULL ^
                      (static_cast<std::uint64_t>(seller) << 32) ^
                      (chunk * 0xff51afd7ed558ccdULL));
  (void)sm.next();  // decorrelate nearby keys
  return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

/// Poisson inverse-CDF from a single uniform (mean expected to be small).
std::uint64_t poisson_from_uniform(double mean, double u) {
  double p = std::exp(-mean);
  double cdf = p;
  std::uint64_t k = 0;
  while (u > cdf && k < 10000) {
    ++k;
    p *= mean / static_cast<double>(k);
    cdf += p;
  }
  return k;
}

}  // namespace

Credits price(const PricingParams& params, std::uint32_t seller,
              std::uint64_t chunk) {
  switch (params.kind) {
    case PricingKind::kUniform:
      return params.uniform_price;
    case PricingKind::kPoisson: {
      const Credits draw = poisson_from_uniform(
          params.poisson_mean, hashed_uniform(seller, chunk));
      return draw < params.poisson_min ? params.poisson_min : draw;
    }
    case PricingKind::kPerSeller: {
      const auto range = params.per_seller_hi - params.per_seller_lo + 1;
      return params.per_seller_lo +
             static_cast<Credits>(hashed_uniform(seller, 0) *
                                  static_cast<double>(range));
    }
    case PricingKind::kLinearSize:
      // Size is a property of the chunk alone so all sellers agree on it.
      return 1 + static_cast<Credits>(hashed_uniform(0, chunk) * 4.0);
  }
  throw util::InvariantError("unknown pricing kind");
}

}  // namespace creditflow::econ
