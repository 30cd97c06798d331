// CreditFlow: the taxation counter-measure of Sec. VI-C of the paper.
//
// "For a peer with a wealth above a given tax threshold, the system collects
//  a fixed proportion of its income. Whenever the system has collected N
//  units of credits, it returns a unit to each peer."
//
// Credits are integral, so fractional liabilities accrue in a per-peer
// accumulator and are collected one whole credit at a time; the engine is
// pure policy — actual balance movements are executed by the caller (the
// ledger), keeping conservation checkable in one place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace creditflow::econ {

/// Static tax parameters.
struct TaxPolicy {
  bool enabled = false;
  double rate = 0.1;        ///< proportion of income collected, in [0,1)
  double threshold = 50.0;  ///< wealth level above which income is taxed
};

/// Bookkeeping engine for threshold income taxation with equal redistribution.
class TaxationEngine {
 public:
  /// Peer ids run below `max_peers`; an enabled policy keeps one debt
  /// cell per id, a disabled one keeps none.
  TaxationEngine(TaxPolicy policy, std::size_t max_peers);

  [[nodiscard]] const TaxPolicy& policy() const { return policy_; }

  /// Record that peer `peer` earned `income` credits, holding
  /// `wealth_after_income` after the sale. Returns the number of whole
  /// credits the caller must move from the peer into the treasury now
  /// (possibly 0). Disabled policies always return 0.
  [[nodiscard]] std::uint64_t on_income(std::uint32_t peer,
                                        std::uint64_t income,
                                        std::uint64_t wealth_after_income);

  /// Credits collected into the treasury and not yet redistributed.
  [[nodiscard]] std::uint64_t treasury() const {
    return collected_ - redistributed_;
  }
  /// Lifetime totals for reporting.
  [[nodiscard]] std::uint64_t total_collected() const { return collected_; }
  [[nodiscard]] std::uint64_t total_redistributed() const {
    return redistributed_;
  }

  /// The redistribution rule: when the treasury holds at least
  /// `population_size` credits, remove that many and return true — the
  /// caller then credits one unit to every current peer. Returns false
  /// (no change) otherwise. `population_size` must be positive.
  [[nodiscard]] bool try_redistribute(std::uint64_t population_size);

  /// Forget a departed peer's fractional liability (open networks).
  void forget_peer(std::uint32_t peer);

 private:
  TaxPolicy policy_;
  std::uint64_t collected_ = 0;
  std::uint64_t redistributed_ = 0;
  std::vector<double> fractional_debt_;  ///< indexed by peer id
};

}  // namespace creditflow::econ
