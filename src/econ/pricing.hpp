// CreditFlow: chunk pricing rules (Sec. V-C of the paper).
//
// The price a seller charges per chunk shapes the spending rates μ and the
// transfer probabilities P, and with them the utilization profile that
// decides condensation. The paper evaluates uniform pricing (1 credit per
// chunk) and Poisson-distributed prices (mean 1); the related-work rules
// (single price per peer, linear pricing) are provided for ablations.
//
// Prices are deterministic functions of (seller, chunk) — hashed, not
// stateful — so runs are reproducible and schedulers may query prices
// without mutating anything.
#pragma once

#include <cstdint>

namespace creditflow::econ {

using Credits = std::uint64_t;

/// Pricing rule selector used by MarketConfig.
enum class PricingKind {
  /// Every chunk costs `uniform_price` everywhere.
  kUniform,
  /// A Poisson(`poisson_mean`) price per (seller, chunk) pair, floored at
  /// `poisson_min` (0 keeps genuine free chunks, which transfer no
  /// credits) — the paper's Fig. 1 "condensed" configuration (mean 1).
  /// The mean must keep exp(-mean) a normal double (at most about 708.4).
  kPoisson,
  /// Each seller charges one hashed personal price in
  /// [`per_seller_lo`, `per_seller_hi`] for every chunk — "a single price
  /// per peer".
  kPerSeller,
  /// Linear pricing over heterogeneous chunk sizes, base 1 and slope 1: s
  /// credits for a hashed per-chunk size s in 1..4 that all sellers agree
  /// on.
  kLinearSize,
};

/// The pricing rule and the parameters of its kind.
struct PricingParams {
  PricingKind kind = PricingKind::kUniform;
  Credits uniform_price = 1;
  double poisson_mean = 1.0;
  Credits poisson_min = 0;
  Credits per_seller_lo = 1;
  Credits per_seller_hi = 3;
};

/// Credits `seller` charges for `chunk` under `params`. The parameters are
/// not range-checked here; the protocol checks the selected rule's once.
[[nodiscard]] Credits price(const PricingParams& params, std::uint32_t seller,
                            std::uint64_t chunk);

}  // namespace creditflow::econ
