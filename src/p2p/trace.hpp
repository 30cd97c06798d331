// CreditFlow: transaction traces — the raw record from which the Table I
// mapping (P, λ, μ) is estimated empirically (core/mapping.*).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "p2p/ledger.hpp"

namespace creditflow::p2p {

/// One chunk purchase: buyer paid `price` to seller for `chunk` at `time`.
struct TransactionRecord {
  double time = 0.0;
  PeerId buyer = 0;
  PeerId seller = 0;
  std::uint64_t chunk = 0;
  Credits price = 0;
};

/// Optional transaction log with pairwise flow aggregation.
///
/// Full logging is O(#transactions) memory, so it is off by default and
/// enabled for analysis runs; pair aggregation alone is cheap and always on
/// once the trace is enabled. Trade counts live in the protocol's metrics
/// (market.transactions / market.volume), not here.
class TransactionTrace {
 public:
  TransactionTrace() = default;

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Keep individual records (implies enabled).
  void set_keep_records(bool keep);

  /// Inline: called once per transaction on the hot path; the disabled
  /// case (the default) must cost one branch, not a function call.
  void record(double time, PeerId buyer, PeerId seller, std::uint64_t chunk,
              Credits price) {
    if (enabled_) record_full(time, buyer, seller, chunk, price);
  }

  [[nodiscard]] const std::vector<TransactionRecord>& records() const {
    return records_;
  }
  /// Credits that flowed buyer→seller, keyed by (buyer << 32) | seller.
  [[nodiscard]] const std::unordered_map<std::uint64_t, Credits>& pair_flows()
      const {
    return pair_flows_;
  }

  static std::uint64_t pair_key(PeerId buyer, PeerId seller) {
    return (static_cast<std::uint64_t>(buyer) << 32) | seller;
  }

 private:
  void record_full(double time, PeerId buyer, PeerId seller,
                   std::uint64_t chunk, Credits price);

  bool enabled_ = false;
  bool keep_records_ = false;
  std::vector<TransactionRecord> records_;
  std::unordered_map<std::uint64_t, Credits> pair_flows_;
};

}  // namespace creditflow::p2p
