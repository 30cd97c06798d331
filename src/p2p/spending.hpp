// CreditFlow: the spending-rate rule (Sec. VI-D of the paper).
//
// A peer's maximum spending rate μ_i caps how many credits it may spend per
// unit time. The paper compares a fixed rate against the dynamic adjustment
//
//     μ_i = μ_i^s · B_i / m   when B_i > m,   μ_i = μ_i^s otherwise,
//
// where B_i is the instantaneous balance and m a wealth threshold — rich
// peers spend proportionally faster, which drains accumulations.
#pragma once

#include <cstdint>

namespace creditflow::p2p {

/// Spending rule for MarketConfig: μ_i = μ_i^s regardless of wealth, or the
/// paper's dynamic adjustment with threshold m.
struct SpendingParams {
  bool dynamic = false;
  double dynamic_threshold = 100.0;  ///< m
};

/// Credits a peer may spend during a scheduling round. `base_rate` is
/// μ_i^s in credits/sec; `balance` the current credits; `round_seconds`
/// the round length. Fractional budgets are meaningful: the scheduler
/// compares prices against the running remainder. The threshold is not
/// range-checked here; the protocol checks it once.
[[nodiscard]] double round_budget(const SpendingParams& params,
                                  double base_rate, std::uint64_t balance,
                                  double round_seconds);

}  // namespace creditflow::p2p
