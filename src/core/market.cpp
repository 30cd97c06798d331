#include "core/market.hpp"

#include <numeric>

#include "econ/gini.hpp"
#include "util/assert.hpp"

namespace creditflow::core {

CreditMarket::CreditMarket(MarketConfig config) : cfg_(std::move(config)) {
  CF_EXPECTS(cfg_.horizon > 0.0);
  CF_EXPECTS(cfg_.snapshot_interval > 0.0);
  CF_EXPECTS(cfg_.snapshot_interval <= cfg_.horizon);
  CF_EXPECTS_MSG(cfg_.rate_window_start < cfg_.horizon,
                 "rate window would open at or after the horizon");
  protocol_ =
      std::make_unique<p2p::StreamingProtocol>(cfg_.protocol, sim_);
  if (cfg_.enable_trace) protocol_->trace().set_enabled(true);
}

void CreditMarket::on_event(std::uint8_t kind, std::uint32_t /*arg*/,
                            double t) {
  switch (kind) {
    case kSnapshot:
      take_snapshot(t, *report_);
      sim_.schedule(t + cfg_.snapshot_interval, agent_, kSnapshot);
      return;
    case kRateWindowOpen:
      protocol_->begin_rate_window();
      return;
  }
}

void CreditMarket::take_snapshot(double t, MarketReport& report) {
  std::vector<double>& balances = snapshot_balances_;
  protocol_->balance_snapshot(balances);
  if (balances.empty()) return;

  const double total =
      std::accumulate(balances.begin(), balances.end(), 0.0);
  report.mean_balance.add(t, total / static_cast<double>(balances.size()));
  report.alive_peers.add(t, static_cast<double>(balances.size()));
  report.mean_buffer_fill.add(t, protocol_->mean_buffer_fill());
  report.gini_balances.add(
      t, total > 0.0 ? econ::gini(balances, gini_scratch_) : 0.0);

  std::vector<double>& rates = snapshot_rates_;
  protocol_->spend_rate_snapshot(rates);
  const double rate_total =
      std::accumulate(rates.begin(), rates.end(), 0.0);
  report.gini_spend_rates.add(
      t, rate_total > 0.0 ? econ::gini(rates, gini_scratch_) : 0.0);

  if (cfg_.audit_every_snapshot) {
    CF_ENSURES_MSG(protocol_->ledger().audit(),
                   "ledger conservation violated at snapshot");
  }
}

MarketReport CreditMarket::run() {
  CF_EXPECTS_MSG(!ran_, "CreditMarket::run may only be called once");
  ran_ = true;

  MarketReport report;
  if (cfg_.series_every_rounds > 0) {
    const auto expected_rounds = static_cast<std::uint64_t>(
        cfg_.horizon / cfg_.protocol.round_seconds) + 1;
    series_ = std::make_unique<RoundSeriesSampler>(
        *protocol_, cfg_.series_every_rounds, expected_rounds);
    protocol_->set_round_hook([this](std::uint64_t round, double t) {
      series_->on_round(round, t);
    });
  }
  protocol_->start();
  agent_ = sim_.attach(*this);
  report_ = &report;
  sim_.schedule(sim_.now() + cfg_.snapshot_interval, agent_, kSnapshot);
  if (cfg_.rate_window_start >= 0.0) {
    sim_.schedule(cfg_.rate_window_start, agent_, kRateWindowOpen);
  }
  sim_.run_until(cfg_.horizon);
  report_ = nullptr;

  // Final state.
  report.horizon = cfg_.horizon;
  report.rounds = protocol_->rounds_run();
  report.final_balances = protocol_->balance_snapshot();
  report.final_spend_rates = protocol_->spend_rate_snapshot();
  report.final_download_rates = protocol_->download_rate_snapshot();
  if (cfg_.rate_window_start >= 0.0 && sim_.now() > cfg_.rate_window_start) {
    report.final_windowed_spend_rates = protocol_->windowed_spend_rates();
  }
  if (!report.final_balances.empty()) {
    report.final_wealth = econ::summarize_wealth(report.final_balances);
  }

  report.counters = protocol_->metrics().counters();
  report.tax_collected = protocol_->taxation().total_collected();
  report.tax_redistributed = protocol_->taxation().total_redistributed();
  if (cfg_.protocol.strat.enabled()) {
    report.final_strategy = protocol_->strategy_breakdown();
  }
  report.ledger_conserved = protocol_->ledger().audit();
  return report;
}

JacksonMapping CreditMarket::empirical_mapping() const {
  return mapping_from_trace(*protocol_, sim_.now());
}

}  // namespace creditflow::core
