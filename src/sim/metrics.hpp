// CreditFlow: metrics recorder — named counters and log2 histograms
// collected during simulation runs and exported to reports/benches.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "util/stats.hpp"

namespace creditflow::sim {

/// Central metrics sink for a simulation run.
///
/// Counters accumulate monotonically; histograms bucket samples by log2.
/// Writers look a cell up by name once (creating it on first use) and then
/// write through the cached pointer; readers look up by name.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  [[nodiscard]] std::uint64_t counter(const std::string& name) const;

  /// Stable pointer to a counter's cell (created zeroed on first use).
  /// Counter cells live as long as the registry itself: std::map nodes
  /// don't move, so a cached cell pointer can never dangle. Hot loops
  /// cache it to skip the per-increment name lookup (and the std::string
  /// construction that goes with it).
  [[nodiscard]] std::uint64_t* counter_cell(const std::string& name);

  /// Stable pointer to a log2-bucket histogram cell (created empty on
  /// first use). Same lifetime contract as counter_cell — and
  /// Log2Histogram::add allocates nothing, keeping histogram updates legal
  /// on the allocation-free round path.
  [[nodiscard]] util::Log2Histogram* histogram_cell(const std::string& name);
  /// Read-only lookup; nullptr when the histogram was never created.
  [[nodiscard]] const util::Log2Histogram* histogram(
      const std::string& name) const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, util::Log2Histogram> histograms_;
};

}  // namespace creditflow::sim
