#include "scenario/spec.hpp"

#include <cstdlib>
#include <sstream>

#include "scenario/params.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace creditflow::scenario {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

core::MarketConfig ScenarioSpec::materialize() const {
  core::MarketConfig cfg = config;
  if (warmup_fraction > 0.0) {
    cfg.rate_window_start = warmup_fraction * cfg.horizon;
  }
  return cfg;
}

std::optional<std::string> ScenarioSpec::set_checked(std::string_view key,
                                                     double value) {
  if (key == "warmup") {
    if (!(value >= 0.0 && value <= 1.0)) {
      return "warmup: fraction must be in [0, 1], got " +
             util::format_double(value);
    }
    warmup_fraction = value;
    return std::nullopt;
  }
  return set_param_checked(config, key, value);
}

std::string ScenarioSpec::serialize() const {
  std::ostringstream out;
  out << "scenario " << name << "\n";
  if (!description.empty()) {
    std::istringstream lines(description);
    std::string line;
    while (std::getline(lines, line)) out << "# " << line << "\n";
  }
  out << "warmup = " << util::format_double(warmup_fraction) << "\n";
  for (const auto& desc : param_table()) {
    out << desc.key << " = " << util::format_double(desc.get(config)) << "\n";
  }
  return out.str();
}

ScenarioSpec ScenarioSpec::parse(const std::string& text) {
  ScenarioSpec spec;
  std::string description;
  std::istringstream lines(text);
  std::string raw;
  while (std::getline(lines, raw)) {
    const std::string_view line = trim(raw);
    if (line.empty()) continue;
    if (line.front() == '#') {
      auto comment = trim(line.substr(1));
      if (!description.empty()) description += '\n';
      description.append(comment);
      continue;
    }
    if (line.rfind("scenario ", 0) == 0) {
      spec.name = std::string(trim(line.substr(9)));
      continue;
    }
    const auto eq = line.find('=');
    CF_EXPECTS_MSG(eq != std::string_view::npos,
                   "scenario line is neither comment nor key = value: " +
                       std::string(line));
    const auto key = trim(line.substr(0, eq));
    const auto value_text = trim(line.substr(eq + 1));
    char* end = nullptr;
    const std::string value_str(value_text);
    const double value = std::strtod(value_str.c_str(), &end);
    CF_EXPECTS_MSG(end != value_str.c_str() && *end == '\0',
                   "bad numeric value for " + std::string(key) + ": " +
                       value_str);
    const auto err = spec.set_checked(key, value);
    CF_EXPECTS_MSG(!err, *err);
  }
  spec.description = std::move(description);
  return spec;
}

}  // namespace creditflow::scenario
