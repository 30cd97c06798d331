#include "queueing/ctmc.hpp"

#include "util/assert.hpp"

namespace creditflow::queueing {

namespace {

/// Build per-row alias tables and target lists from a transfer matrix.
void build_routing(const TransferMatrix& p,
                   std::vector<util::AliasTable>& tables,
                   std::vector<std::vector<std::uint32_t>>& targets) {
  const std::size_t n = p.size();
  tables.clear();
  targets.clear();
  tables.reserve(n);
  targets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> weights;
    std::vector<std::uint32_t> tos;
    for (const auto& e : p.row(i)) {
      weights.push_back(e.probability);
      tos.push_back(e.to);
    }
    CF_EXPECTS_MSG(!weights.empty(), "row with no routing");
    tables.emplace_back(std::span<const double>(weights));
    targets.push_back(std::move(tos));
  }
}

}  // namespace

ClosedCtmcSimulator::ClosedCtmcSimulator(TransferMatrix routing,
                                         ClosedCtmcConfig config)
    : p_(std::move(routing)), cfg_(std::move(config)), rng_(cfg_.seed) {
  const std::size_t n = p_.size();
  CF_EXPECTS(n > 0);
  CF_EXPECTS(cfg_.service_rates.size() == n);
  CF_EXPECTS(cfg_.initial_credits.size() == n);
  CF_EXPECTS_MSG(p_.is_stochastic(1e-9),
                 "closed CTMC requires a stochastic matrix");
  CF_EXPECTS(cfg_.horizon > 0.0 && cfg_.snapshot_interval > 0.0);
  for (double mu : cfg_.service_rates) CF_EXPECTS(mu > 0.0);

  build_routing(p_, routing_tables_, routing_targets_);
  credits_ = cfg_.initial_credits;
  departures_.assign(n, 0);
  total_ = 0;
  for (auto b : credits_) total_ += b;
  CF_EXPECTS_MSG(total_ > 0, "closed network needs at least one credit");

  active_.resize(n);
  for (std::size_t i = 0; i < n; ++i) set_queue_rate(i);
}

void ClosedCtmcSimulator::set_queue_rate(std::size_t i) {
  active_.set(i, credits_[i] > 0 ? cfg_.service_rates[i] : 0.0);
}

std::uint64_t ClosedCtmcSimulator::run(
    const std::function<void(const CtmcSnapshot&)>& observer) {
  std::uint64_t jumps = 0;
  double next_snapshot = cfg_.snapshot_interval;
  std::vector<std::uint64_t> departures_at_last_snap(credits_.size(), 0);

  auto emit_snapshot = [&](double at) {
    if (!observer) return;
    std::vector<double> rates(credits_.size(), 0.0);
    const double dt = at - (next_snapshot - cfg_.snapshot_interval);
    for (std::size_t i = 0; i < credits_.size(); ++i) {
      const auto delta = departures_[i] - departures_at_last_snap[i];
      rates[i] = dt > 0.0 ? static_cast<double>(delta) / dt : 0.0;
      departures_at_last_snap[i] = departures_[i];
    }
    CtmcSnapshot snap;
    snap.time = at;
    snap.credits = credits_;
    snap.spend_rate = rates;
    observer(snap);
  };

  while (time_ < cfg_.horizon) {
    const double total_rate = active_.total();
    if (total_rate <= 0.0) break;  // absorbing (cannot happen when M > 0)
    const double dt = rng_.exponential(total_rate);
    double event_time = time_ + dt;

    while (event_time >= next_snapshot && next_snapshot <= cfg_.horizon) {
      emit_snapshot(next_snapshot);
      next_snapshot += cfg_.snapshot_interval;
    }
    if (event_time > cfg_.horizon) {
      time_ = cfg_.horizon;
      break;
    }
    time_ = event_time;

    const std::size_t i = active_.sample(rng_);
    const std::size_t pick = routing_tables_[i].sample(rng_);
    const std::size_t j = routing_targets_[i][pick];
    CF_ENSURES(credits_[i] > 0);
    --credits_[i];
    ++credits_[j];
    ++departures_[i];
    ++jumps;
    if (credits_[i] == 0) set_queue_rate(i);
    if (credits_[j] == 1) set_queue_rate(j);
  }
  // Final snapshot at the horizon.
  if (next_snapshot <= cfg_.horizon + 1e-9) emit_snapshot(cfg_.horizon);
  return jumps;
}

std::vector<double> ClosedCtmcSimulator::average_spend_rates() const {
  std::vector<double> rates(credits_.size(), 0.0);
  if (time_ <= 0.0) return rates;
  for (std::size_t i = 0; i < credits_.size(); ++i) {
    rates[i] = static_cast<double>(departures_[i]) / time_;
  }
  return rates;
}

}  // namespace creditflow::queueing
