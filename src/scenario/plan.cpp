#include "scenario/plan.hpp"

#include <cstdint>
#include <cstdio>
#include <utility>

#include "scenario/executor.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace creditflow::scenario {

std::string RunKey::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

std::optional<RunKey> RunKey::from_hex(std::string_view text) {
  if (text.size() != 32) return std::nullopt;
  std::uint64_t words[2] = {0, 0};
  for (std::size_t w = 0; w < 2; ++w) {
    for (std::size_t i = 0; i < 16; ++i) {
      const char c = text[w * 16 + i];
      std::uint64_t digit = 0;
      if (c >= '0' && c <= '9') digit = static_cast<std::uint64_t>(c - '0');
      else if (c >= 'a' && c <= 'f') digit = 10u + (c - 'a');
      else if (c >= 'A' && c <= 'F') digit = 10u + (c - 'A');
      else return std::nullopt;
      words[w] = (words[w] << 4) | digit;
    }
  }
  return RunKey{words[0], words[1]};
}

RunKey RunKey::of(std::string_view spec_text, std::size_t run_index) {
  // Two independent FNV-1a streams over the spec text (standard basis and a
  // decorrelated one), each folded with the run index through the same
  // SplitMix64 finalization the seed derivation uses. Both halves depend on
  // every byte of the spec and on the index.
  const std::uint64_t h1 = util::fnv1a64(spec_text);
  const std::uint64_t h2 =
      util::fnv1a64(spec_text, 0x9d2c5680cafe4321ULL);
  return RunKey{util::derive_seed(h1, run_index),
                util::derive_seed(h2 ^ 0x6a09e667f3bcc909ULL, run_index)};
}

SweepPlan::SweepPlan(ScenarioSpec base, SweepSpec sweep)
    : base_(std::move(base)), sweep_(std::move(sweep)) {
  CF_EXPECTS(sweep_.seeds >= 1);
  // Every run index must fit in size_t: check points x seeds as it grows.
  std::size_t runs = sweep_.seeds;
  for (const auto& axis : sweep_.axes) {
    const std::size_t n = axis.values.size();
    CF_EXPECTS_MSG(n == 0 || runs <= SIZE_MAX / n,
                   "sweep grid has more runs than size_t can count");
    runs *= n;
  }
}

ScenarioSpec SweepPlan::spec(std::size_t run_index) const {
  return sweep_.instantiate(base_, run_index);
}

RunKey SweepPlan::key(std::size_t run_index) const {
  // Keyed off the serialized *instantiated* spec: any change that alters
  // what the run would actually simulate — an axis value, a base parameter,
  // the derived per-run seed — changes the key, and nothing else does.
  return RunKey::of(spec(run_index).serialize(), run_index);
}

RunResult SweepPlan::labelled_result(std::size_t run_index) const {
  CF_EXPECTS(run_index < size());
  RunResult result;
  result.run_index = run_index;
  result.point_index = run_index / sweep_.seeds;
  result.seed_index = run_index % sweep_.seeds;

  const auto values = sweep_.point(result.point_index);
  for (std::size_t k = 0; k < sweep_.axes.size(); ++k) {
    result.params.emplace_back(sweep_.axes[k].param, values[k]);
  }
  return result;
}

RunResult SweepPlan::labelled_result(std::size_t run_index,
                                     RunResult outcome) const {
  RunResult result = labelled_result(run_index);
  result.seed = outcome.seed;
  result.metrics = std::move(outcome.metrics);
  result.telemetry = outcome.telemetry;
  result.error = std::move(outcome.error);
  return result;
}

std::vector<std::size_t> SweepPlan::all_runs() const {
  std::vector<std::size_t> indices(size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  return indices;
}

std::vector<std::size_t> SweepPlan::shard(std::size_t shard_index,
                                          std::size_t shard_count) const {
  CF_EXPECTS(shard_count >= 1);
  CF_EXPECTS_MSG(shard_index < shard_count,
                 "shard index must be < shard count");
  std::vector<std::size_t> indices;
  indices.reserve(size() / shard_count + 1);
  for (std::size_t i = shard_index; i < size(); i += shard_count) {
    indices.push_back(i);
  }
  return indices;
}

}  // namespace creditflow::scenario
