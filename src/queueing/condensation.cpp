#include "queueing/condensation.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace creditflow::queueing {

namespace {

/// Integrate f over [0,1] in fixed panels so that narrow spikes (e.g. a
/// histogram density concentrated in one bin) are never missed by the
/// adaptive refinement's initial sampling.
double integrate_unit_interval(const std::function<double(double)>& f) {
  constexpr int kPanels = 64;
  double total = 0.0;
  for (int k = 0; k < kPanels; ++k) {
    const double a = static_cast<double>(k) / kPanels;
    const double b = static_cast<double>(k + 1) / kPanels;
    total += util::integrate(f, a, b, 1e-11);
  }
  return total;
}

double normalization_of(const std::function<double(double)>& density) {
  const double mass = integrate_unit_interval(density);
  CF_EXPECTS_MSG(mass > 0.0, "density has no mass on [0,1]");
  return mass;
}

}  // namespace

CondensationAnalysis analyze_condensation_density(
    const std::function<double(double)>& density, double average_wealth) {
  CF_EXPECTS(average_wealth >= 0.0);
  const double mass = normalization_of(density);
  const auto g = [&](double z) {
    const auto f = [&](double w) {
      return w / (1.0 - z * w) * density(w) / mass;
    };
    return integrate_unit_interval(f);
  };
  const auto limit = util::limit_from_below(g);

  CondensationAnalysis out;
  out.threshold = limit.value;
  out.threshold_finite = !limit.diverges;
  out.average_wealth = average_wealth;
  out.condensation_predicted =
      out.threshold_finite && average_wealth > out.threshold;
  return out;
}

CondensationAnalysis analyze_condensation_empirical(
    std::span<const double> utilization, double average_wealth,
    const EmpiricalOptions& opts) {
  CF_EXPECTS(!utilization.empty());
  CF_EXPECTS(opts.bins >= 4);
  CF_EXPECTS(opts.top_exclude_fraction >= 0.0 &&
             opts.top_exclude_fraction < 0.5);
  for (double u : utilization) {
    CF_EXPECTS_MSG(u >= 0.0 && u <= 1.0 + 1e-12,
                   "utilizations must be normalized into [0,1]");
  }

  std::vector<double> us(utilization.begin(), utilization.end());
  std::sort(us.begin(), us.end());
  std::size_t keep = us.size();
  if (opts.exclude_top_atom && us.size() > 2) {
    const auto drop = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(
               opts.top_exclude_fraction * static_cast<double>(us.size()))));
    keep = us.size() - drop;
  }

  util::Histogram hist(0.0, 1.0 + 1e-9, opts.bins);
  for (std::size_t i = 0; i < keep; ++i) hist.add(us[i]);
  const auto dens = hist.density();
  const double width = hist.bin_width();

  // Piecewise-constant density over bin centers; evaluated as a step
  // function so quadrature sees the histogram exactly.
  const auto density = [dens, width](double w) -> double {
    if (w < 0.0 || w >= width * static_cast<double>(dens.size())) return 0.0;
    const auto bin = static_cast<std::size_t>(w / width);
    return dens[std::min(bin, dens.size() - 1)];
  };
  return analyze_condensation_density(density, average_wealth);
}

}  // namespace creditflow::queueing
