#include "scenario/sweep.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "scenario/params.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace creditflow::scenario {

namespace {

double parse_number(const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  CF_EXPECTS_MSG(end != text.c_str() && *end == '\0',
                 "bad number in sweep axis: " + text);
  return v;
}

}  // namespace

SweepAxis SweepAxis::parse(const std::string& text) {
  const auto eq = text.find('=');
  CF_EXPECTS_MSG(eq != std::string::npos,
                 "sweep axis must be key=values, got: " + text);
  SweepAxis axis;
  axis.param = text.substr(0, eq);
  CF_EXPECTS_MSG(find_param(axis.param) != nullptr || axis.param == "warmup",
                 "unknown sweep parameter: " + axis.param);
  const std::string values = text.substr(eq + 1);
  CF_EXPECTS_MSG(!values.empty(), "empty sweep axis: " + text);

  if (values.find(':') != std::string::npos) {
    // lo:hi:step inclusive range (step defaults to 1).
    const auto c1 = values.find(':');
    const auto c2 = values.find(':', c1 + 1);
    const double lo = parse_number(values.substr(0, c1));
    const double hi = parse_number(
        values.substr(c1 + 1, c2 == std::string::npos ? std::string::npos
                                                      : c2 - c1 - 1));
    const double step =
        c2 == std::string::npos ? 1.0 : parse_number(values.substr(c2 + 1));
    CF_EXPECTS_MSG(step > 0.0, "sweep step must be positive: " + text);
    CF_EXPECTS_MSG(hi >= lo, "sweep range is empty: " + text);
    // Index-based stepping avoids accumulating float error over long ranges;
    // the epsilon admits hi itself when (hi-lo) is a whole multiple of step.
    const auto count = static_cast<std::size_t>(
        std::floor((hi - lo) / step + 1e-9)) + 1;
    axis.values.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      axis.values.push_back(lo + static_cast<double>(i) * step);
    }
  } else {
    // Comma-separated list (or a single value).
    std::size_t pos = 0;
    while (pos <= values.size()) {
      const auto comma = values.find(',', pos);
      const auto end = comma == std::string::npos ? values.size() : comma;
      axis.values.push_back(parse_number(values.substr(pos, end - pos)));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }
  CF_ENSURES(!axis.values.empty());
  // Validate every instantiated value through the parameter setter up
  // front, so a malformed axis dies with one diagnostic at parse time
  // instead of failing each run that carries it.
  ScenarioSpec trial;
  for (const double v : axis.values) {
    const auto err = trial.set_checked(axis.param, v);
    CF_EXPECTS_MSG(!err, "bad sweep value: " + *err);
  }
  return axis;
}

std::string SweepSpec::serialize() const {
  std::string out = "seeds " + std::to_string(seeds) + "\n";
  for (const auto& axis : axes) {
    out += "axis " + axis.param + "=";
    for (std::size_t i = 0; i < axis.values.size(); ++i) {
      if (i > 0) out += ',';
      out += util::format_double(axis.values[i]);
    }
    out += '\n';
  }
  return out;
}

SweepSpec SweepSpec::parse(const std::string& text) {
  SweepSpec sweep;
  bool saw_seeds = false;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const auto end = text.find('\n', pos);
    const std::string line =
        text.substr(pos, end == std::string::npos ? std::string::npos
                                                  : end - pos);
    pos = end == std::string::npos ? text.size() : end + 1;
    if (line.empty()) continue;
    if (line.rfind("seeds ", 0) == 0) {
      char* parse_end = nullptr;
      const char* begin = line.c_str() + 6;
      // Digits only, and no ERANGE saturation: strtoull silently wraps a
      // leading minus ("seeds -1") and clamps overflow ("seeds 2e19+") to
      // 2^64-1 — both must reject, not become a 2^64-run plan.
      const bool starts_with_digit = *begin >= '0' && *begin <= '9';
      errno = 0;
      const unsigned long long v = std::strtoull(begin, &parse_end, 10);
      CF_EXPECTS_MSG(starts_with_digit && *parse_end == '\0' && v >= 1 &&
                         errno != ERANGE,
                     "bad sweep seeds line: " + line);
      sweep.seeds = static_cast<std::size_t>(v);
      saw_seeds = true;
    } else if (line.rfind("axis ", 0) == 0) {
      sweep.axes.push_back(SweepAxis::parse(line.substr(5)));
    } else {
      CF_EXPECTS_MSG(false, "bad sweep line: " + line);
    }
  }
  CF_EXPECTS_MSG(saw_seeds, "sweep text is missing the seeds line");
  return sweep;
}

std::size_t SweepSpec::num_points() const {
  std::size_t n = 1;
  for (const auto& axis : axes) n *= axis.values.size();
  return n;
}

std::vector<double> SweepSpec::point(std::size_t point_index) const {
  CF_EXPECTS(point_index < num_points());
  std::vector<double> out(axes.size());
  // Mixed-radix decomposition, last axis fastest.
  std::size_t rem = point_index;
  for (std::size_t k = axes.size(); k-- > 0;) {
    const auto radix = axes[k].values.size();
    out[k] = axes[k].values[rem % radix];
    rem /= radix;
  }
  return out;
}

ScenarioSpec SweepSpec::instantiate(const ScenarioSpec& base,
                                    std::size_t run_index) const {
  CF_EXPECTS(seeds >= 1);
  CF_EXPECTS(run_index < num_runs());
  const std::size_t point_index = run_index / seeds;

  ScenarioSpec spec = base;
  const auto values = point(point_index);
  for (std::size_t k = 0; k < axes.size(); ++k) {
    const auto err = spec.set_checked(axes[k].param, values[k]);
    CF_EXPECTS_MSG(!err, "bad sweep value: " + *err);
  }
  // Per-run stream derivation AFTER the axes apply, so an axis may sweep
  // the base seed itself and still get decorrelated replications.
  spec.config.protocol.seed =
      util::derive_seed(spec.config.protocol.seed, run_index);
  return spec;
}

}  // namespace creditflow::scenario
