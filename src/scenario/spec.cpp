#include "scenario/spec.hpp"

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
  const ParamDesc* desc = find_param(key);
  if (desc == nullptr) return "unknown parameter: " + std::string(key);
  std::string err = desc->check(value);
  if (!err.empty()) return err;
  desc->set(*this, value);
  return std::nullopt;
}

std::string ScenarioSpec::serialize() const {
  std::ostringstream out;
  out << "scenario " << name << "\n";
  if (!description.empty()) {
    std::istringstream lines(description);
    std::string line;
    while (std::getline(lines, line)) out << "# " << line << "\n";
  }
  for (const auto& desc : param_table()) {
    out << desc.key << " = " << util::format_double(desc.get(*this)) << "\n";
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
    const auto value = util::parse_number(value_text);
    CF_EXPECTS_MSG(value.has_value(), "bad numeric value for " +
                                          std::string(key) + ": " +
                                          std::string(value_text));
    const auto err = spec.set_checked(key, *value);
    CF_EXPECTS_MSG(!err, *err);
  }
  spec.description = std::move(description);
  return spec;
}

}  // namespace creditflow::scenario
