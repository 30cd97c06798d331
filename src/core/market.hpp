// CreditFlow: CreditMarket — the top-level facade. Configure a market, run
// it on the discrete-event engine, get a MarketReport; optionally extract
// the Table I mapping and hand it to the SustainabilityAnalyzer.
//
// This is the API the examples and figure benches are written against.
#pragma once

#include <memory>
#include <vector>

#include "core/mapping.hpp"
#include "core/report.hpp"
#include "core/series.hpp"
#include "p2p/protocol.hpp"
#include "sim/simulator.hpp"

namespace creditflow::core {

/// Run parameters around the protocol configuration.
struct MarketConfig {
  p2p::ProtocolConfig protocol;
  double horizon = 20000.0;          ///< simulated seconds
  double snapshot_interval = 200.0;  ///< metrics cadence
  bool enable_trace = false;         ///< pairwise flow aggregation for mapping
  bool audit_every_snapshot = true;  ///< assert ledger conservation

  /// When >= 0 (and < horizon), open the protocol's trailing rate window at
  /// this simulation time; the report then carries windowed spend rates
  /// measured over [rate_window_start, horizon] — the paper's "evolved for
  /// a long time" readout (Fig. 1). Negative disables.
  double rate_window_start = -1.0;

  /// When > 0, collect a per-round time series (one RoundSample every N
  /// rounds) readable via CreditMarket::series() after run(). Pure readout:
  /// sampling consumes no RNG and changes no report bytes, so it is
  /// deliberately NOT part of ScenarioSpec (run cache keys are unaffected).
  /// 0 disables.
  std::size_t series_every_rounds = 0;
};

/// One market = one simulator + one protocol instance + metrics collection.
/// The market is the calendar agent for snapshots and the rate window.
class CreditMarket : private sim::Simulator::Agent {
 public:
  explicit CreditMarket(MarketConfig config);

  /// Run to the horizon and return the collected report. Can only be called
  /// once per instance.
  [[nodiscard]] MarketReport run();

  /// Access the live protocol (valid after construction; most useful after
  /// run() for final-state inspection or mapping extraction).
  [[nodiscard]] const p2p::StreamingProtocol& protocol() const {
    return *protocol_;
  }
  [[nodiscard]] const MarketConfig& config() const { return cfg_; }
  [[nodiscard]] double now() const { return sim_.now(); }

  /// The per-round time series collected during run(); nullptr unless
  /// series_every_rounds > 0 (and empty until run() executes).
  [[nodiscard]] const RoundSeriesSampler* series() const {
    return series_.get();
  }

  /// Empirical Table I mapping from the recorded trace (requires
  /// enable_trace and a completed run).
  [[nodiscard]] JacksonMapping empirical_mapping() const;
 private:
  enum Event : std::uint8_t { kSnapshot, kRateWindowOpen };
  void on_event(std::uint8_t kind, std::uint32_t arg, double t) override;
  void take_snapshot(double t, MarketReport& report);

  MarketConfig cfg_;
  sim::Simulator sim_;
  sim::Simulator::AgentId agent_ = 0;
  MarketReport* report_ = nullptr;  ///< the report run() is filling
  std::unique_ptr<p2p::StreamingProtocol> protocol_;
  // Periodic-snapshot scratch, reused across samples so the metrics cadence
  // allocates nothing once the buffers have warmed up.
  std::vector<double> snapshot_balances_;
  std::vector<double> snapshot_rates_;
  std::vector<double> gini_scratch_;
  std::unique_ptr<RoundSeriesSampler> series_;
  bool ran_ = false;
};

}  // namespace creditflow::core
