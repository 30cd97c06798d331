#include "sim/metrics.hpp"

namespace creditflow::sim {

std::uint64_t MetricsRegistry::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::uint64_t* MetricsRegistry::counter_cell(const std::string& name) {
  return &counters_[name];
}

util::Log2Histogram* MetricsRegistry::histogram_cell(
    const std::string& name) {
  return &histograms_[name];
}

const util::Log2Histogram* MetricsRegistry::histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

}  // namespace creditflow::sim
