#include "scenario/registry.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace creditflow::scenario {

core::MarketConfig paper_market(std::size_t peers, std::uint64_t credits,
                                double horizon) {
  core::MarketConfig cfg;
  cfg.protocol.initial_peers = peers;
  cfg.protocol.max_peers = peers;
  cfg.protocol.initial_credits = credits;
  cfg.protocol.seed = 2012;
  cfg.horizon = horizon;
  cfg.snapshot_interval = std::max(50.0, horizon / 40.0);
  return cfg;
}

namespace {

/// paper_market() as a named spec.
ScenarioSpec paper_baseline(std::string name, std::string description,
                            std::size_t peers, std::uint64_t credits,
                            double horizon) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.description = std::move(description);
  spec.config = paper_market(peers, credits, horizon);
  return spec;
}

/// Asymmetric-utilization variant: heterogeneous spending rates (lognormal,
/// CV 0.3) — frugal peers accumulate, the condensation pressure is real.
ScenarioSpec paper_asymmetric(std::string name, std::string description,
                              std::size_t peers, std::uint64_t credits,
                              double horizon) {
  auto spec = paper_baseline(std::move(name), std::move(description), peers,
                             credits, horizon);
  spec.config.protocol.heterogeneity.spend_rate_cv = 0.3;
  return spec;
}

ScenarioRegistry make_builtin() {
  ScenarioRegistry reg;

  reg.add(paper_baseline(
      "baseline", "Paper baseline: symmetric utilization, c = 100.", 500,
      100, 20000.0));
  reg.add(paper_asymmetric(
      "asymmetric",
      "Asymmetric utilization: heterogeneous spending rates, CV 0.3.", 500,
      100, 20000.0));

  {
    // Fig. 1, condensed: "without careful design" — capacity headroom
    // captured by chunk-rich peers, Poisson prices, no liquidity
    // management, no server help. Warmup 0.9: spending rates are read over
    // the trailing tenth of the (doubled) run.
    auto spec = paper_baseline(
        "fig01_condensed",
        "Fig. 1 condensed case: c = 200, Poisson prices, fill-weighted "
        "sellers, no safeguards.",
        500, 200, 12000.0);
    spec.config.protocol.upload_capacity = 8.0;
    spec.config.protocol.seller_choice =
        p2p::ProtocolConfig::SellerChoice::kFillWeighted;
    spec.config.protocol.pricing.kind = econ::PricingKind::kPoisson;
    spec.config.protocol.pricing.poisson_mean = 1.0;
    spec.config.protocol.reserve_credits = 0.0;
    spec.config.protocol.deficit_seeding = false;
    spec.warmup_fraction = 0.9;
    reg.add(std::move(spec));
  }
  {
    auto spec = paper_baseline(
        "fig01_balanced",
        "Fig. 1 balanced case: c = 12, uniform 1-credit pricing.", 500, 12,
        6000.0);
    spec.warmup_fraction = 0.9;
    reg.add(std::move(spec));
  }

  reg.add(paper_baseline(
      "fig04_efficiency",
      "Fig. 4 exchange-efficiency operating point: small market, short "
      "horizon.",
      300, 100, 3000.0));

  reg.add(paper_baseline(
      "fig07_symmetric",
      "Fig. 7: Gini(t) under symmetric utilization; sweep credits over "
      "{50, 100, 200}.",
      500, 100, 20000.0));

  reg.add(paper_asymmetric(
      "fig08_asymmetric",
      "Fig. 8: Gini(t) under asymmetric utilization; sweep credits over "
      "{50, 100, 200}.",
      500, 100, 20000.0));

  {
    auto spec = paper_asymmetric(
        "fig09_taxation",
        "Fig. 9: threshold income taxation in the asymmetric market; sweep "
        "tax.rate and tax.threshold.",
        400, 100, 15000.0);
    spec.config.snapshot_interval = spec.config.horizon / 30.0;
    spec.config.protocol.tax.enabled = true;
    spec.config.protocol.tax.rate = 0.1;
    spec.config.protocol.tax.threshold = 50.0;
    reg.add(std::move(spec));
  }
  {
    auto spec = paper_asymmetric(
        "fig10_dynamic_spending",
        "Fig. 10: dynamic spending-rate adjustment with wealth threshold "
        "m; sweep spending.threshold.",
        400, 100, 15000.0);
    spec.config.snapshot_interval = spec.config.horizon / 30.0;
    spec.config.protocol.spending.dynamic = true;
    spec.config.protocol.spending.dynamic_threshold = 100.0;
    reg.add(std::move(spec));
  }
  {
    auto spec = paper_asymmetric(
        "fig11_churn",
        "Fig. 11: the open market — Poisson arrivals, exponential "
        "lifespans; sweep churn.arrival_rate and churn.mean_lifespan.",
        500, 100, 8000.0);
    spec.config.snapshot_interval = spec.config.horizon / 20.0;
    spec.config.protocol.churn.enabled = true;
    spec.config.protocol.churn.arrival_rate = 1.0;
    spec.config.protocol.churn.mean_lifespan = 500.0;
    // Headroom for the churning population on top of the bootstrap cohort,
    // sized for the bench/CLI sweeps over the churn axes (up to 4 peers/s
    // × 250 s ≈ 1000 expected alive) — capacity drops would silently skew
    // the arrival process.
    spec.config.protocol.max_peers = 2048;
    reg.add(std::move(spec));
  }
  {
    // ext01: first-price procurement auction in the condensed-pressure
    // market (the pricing mechanism the paper defers to future work).
    auto spec = paper_baseline(
        "ext01_auction",
        "Extension: cheapest-ask procurement auction under condensation "
        "pressure.",
        400, 200, 8000.0);
    spec.config.protocol.upload_capacity = 8.0;
    spec.config.protocol.pricing.kind = econ::PricingKind::kPoisson;
    spec.config.protocol.pricing.poisson_mean = 1.0;
    spec.config.protocol.reserve_credits = 0.0;
    spec.config.protocol.deficit_seeding = false;
    spec.config.protocol.seller_choice =
        p2p::ProtocolConfig::SellerChoice::kCheapestAsk;
    reg.add(std::move(spec));
  }
  {
    auto spec = paper_asymmetric(
        "ext02_injection",
        "Extension: periodic credit injection (inflation trade-off); sweep "
        "inject.interval.",
        400, 100, 12000.0);
    spec.config.snapshot_interval = spec.config.horizon / 24.0;
    spec.config.protocol.injection.enabled = true;
    spec.config.protocol.injection.interval_seconds = 100.0;
    spec.config.protocol.injection.credits_per_peer = 1;
    reg.add(std::move(spec));
  }
  {
    // obk01: Ramaswamy et al.'s supply curve — adaptive (tatonnement)
    // repricing discovers a clearing price that falls as the seller pool
    // grows. Sweep book.seller_fraction over e.g. {0.2, 0.4, 0.6, 0.8,
    // 1.0} and read the clearing_price metric: scarce supply clears high,
    // abundant supply competes the price down to the floor.
    auto spec = paper_baseline(
        "obk01_clearing",
        "Order book: clearing price vs seeder fraction under adaptive ask "
        "repricing; sweep book.seller_fraction.",
        400, 200, 8000.0);
    spec.config.protocol.market_mode =
        p2p::ProtocolConfig::MarketMode::kOrderBook;
    // Demand light enough that a small seller pool can still serve the
    // room: the price signal (scarce supply clears high) then dominates
    // the availability signal (scarce supply starves replication, which
    // would drag per-seller fills — and thus adaptive prices — *down*).
    spec.config.protocol.stream_rate = 0.5;
    spec.config.protocol.book.ask_pricing =
        p2p::ProtocolConfig::OrderBookConfig::AskPricing::kAdaptive;
    spec.config.protocol.book.base_price = 2;
    spec.config.protocol.book.max_price = 16;
    spec.config.protocol.book.reprice_rounds = 8;
    spec.config.protocol.book.seller_fraction = 0.5;
    reg.add(std::move(spec));
  }
  {
    // obk02: sustainability vs ask markup — fixed-markup sellers price a
    // constant fraction over base; past the buyers' willingness the market
    // starves (fill_ratio and mean_buffer_fill collapse, bankrupt_fraction
    // climbs). Sweep book.markup over e.g. {0, 0.5, 1, 2, 4}.
    auto spec = paper_asymmetric(
        "obk02_markup",
        "Order book: sustainability vs fixed ask markup; sweep "
        "book.markup.",
        400, 100, 8000.0);
    spec.config.protocol.market_mode =
        p2p::ProtocolConfig::MarketMode::kOrderBook;
    spec.config.protocol.book.ask_pricing =
        p2p::ProtocolConfig::OrderBookConfig::AskPricing::kFixedMarkup;
    spec.config.protocol.book.ask_markup = 1.0;
    spec.config.protocol.book.base_price = 1;
    spec.config.protocol.book.max_price = 16;
    reg.add(std::move(spec));
  }

  {
    // adv01: free-riders in the closed asymmetric market — consume-only
    // peers never upload (and never post asks), so the honest majority
    // carries the full serving load. Sweep strat.free_riders over e.g.
    // {0, 0.1, 0.2, 0.3, 0.5} and read honest_fill / attacker_credit_share
    // against converged_gini.
    auto spec = paper_asymmetric(
        "adv01_freeride",
        "Adversarial: free-rider fraction vs availability and Gini; sweep "
        "strat.free_riders.",
        400, 100, 8000.0);
    spec.config.snapshot_interval = spec.config.horizon / 20.0;
    spec.config.protocol.strat.free_rider_fraction = 0.2;
    reg.add(std::move(spec));
  }
  {
    // adv02: whitewashers in the open (churn) market — the rejoin-mint
    // loophole under attack. Each attacker burns its residual balance,
    // departs, and re-arrives freshly endowed whenever it goes broke;
    // whitewash_extracted measures the net credit pulled from the mint.
    // Sweep strat.whitewashers (and churn.rejoin_mint 0..2 to watch the
    // policy close the loophole).
    auto spec = paper_asymmetric(
        "adv02_whitewash",
        "Adversarial: whitewasher identity cycling under churn; sweep "
        "strat.whitewashers and churn.rejoin_mint.",
        500, 100, 8000.0);
    spec.config.snapshot_interval = spec.config.horizon / 20.0;
    spec.config.protocol.churn.enabled = true;
    spec.config.protocol.churn.arrival_rate = 1.0;
    spec.config.protocol.churn.mean_lifespan = 500.0;
    spec.config.protocol.max_peers = 2048;
    spec.config.protocol.strat.whitewash_fraction = 0.2;
    spec.config.protocol.strat.whitewash_threshold = 10.0;
    reg.add(std::move(spec));
  }
  {
    // adv03: the stake defense in the order-book market under churn —
    // bonded seeders get seeding priority and exclusive asks, whitewashers
    // still cycle, and early departure slashes the bond to the treasury.
    // Sweep strat.staked (or strat.stake_amount) against honest_fill and
    // stake_slashed to price the bond.
    auto spec = paper_asymmetric(
        "adv03_stake",
        "Adversarial defense: stake-bonded seeders vs whitewashers in the "
        "order-book market; sweep strat.staked.",
        400, 100, 8000.0);
    spec.config.snapshot_interval = spec.config.horizon / 20.0;
    spec.config.protocol.market_mode =
        p2p::ProtocolConfig::MarketMode::kOrderBook;
    spec.config.protocol.book.ask_pricing =
        p2p::ProtocolConfig::OrderBookConfig::AskPricing::kFixedMarkup;
    spec.config.protocol.book.ask_markup = 1.0;
    spec.config.protocol.book.base_price = 1;
    spec.config.protocol.book.max_price = 16;
    spec.config.protocol.churn.enabled = true;
    spec.config.protocol.churn.arrival_rate = 0.5;
    spec.config.protocol.churn.mean_lifespan = 500.0;
    spec.config.protocol.max_peers = 1536;
    spec.config.protocol.strat.whitewash_fraction = 0.1;
    spec.config.protocol.strat.whitewash_threshold = 10.0;
    spec.config.protocol.strat.staked_fraction = 0.2;
    spec.config.protocol.strat.stake_amount = 25;
    spec.config.protocol.strat.stake_slash = 0.5;
    spec.config.protocol.strat.revalidate_rounds = 16;
    reg.add(std::move(spec));
  }

  return reg;
}

}  // namespace

void ScenarioRegistry::add(ScenarioSpec spec) {
  for (auto& existing : specs_) {
    if (existing.name == spec.name) {
      existing = std::move(spec);
      return;
    }
  }
  specs_.push_back(std::move(spec));
}

const ScenarioSpec* ScenarioRegistry::find(std::string_view name) const {
  for (const auto& spec : specs_) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

ScenarioSpec ScenarioRegistry::get(std::string_view name) const {
  const ScenarioSpec* spec = find(name);
  CF_EXPECTS_MSG(spec != nullptr,
                 "unknown scenario: " + std::string(name));
  return *spec;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const auto& spec : specs_) out.push_back(spec.name);
  return out;
}

const ScenarioRegistry& ScenarioRegistry::builtin() {
  static const ScenarioRegistry kRegistry = make_builtin();
  return kRegistry;
}

}  // namespace creditflow::scenario
