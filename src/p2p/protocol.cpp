#include "p2p/protocol.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "graph/generators.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"
#include "util/trace.hpp"

namespace creditflow::p2p {

namespace {

/// Edge-arena sizing for the protocol's overlay: steady state holds
/// ~mean_degree directed cells per peer (2E = N·d̄), churn joins burst
/// 2·join_links more; a 2x headroom factor covers both with room for
/// degree-distribution skew. 4 bytes per cell — at paper-default degree 20
/// about 160 bytes per slot. Computed in floating point, so an absurd
/// degree is rejected before anything is allocated rather than wrapping.
std::size_t protocol_edge_cells(std::size_t max_peers, double mean_degree,
                                std::size_t join_links) {
  const double per_peer =
      std::max(mean_degree, 2.0 * static_cast<double>(join_links));
  const double cells =
      static_cast<double>(max_peers) * std::ceil(per_peer) * 2.0;
  CF_EXPECTS_MSG(
      cells <= static_cast<double>(std::numeric_limits<std::uint32_t>::max()),
      "overlay edge arena above 2^32 - 1 cells (overlay degree or "
      "churn.join_links too large for max_peers)");
  return static_cast<std::size_t>(cells);
}

/// An upload budget of `chunks` in whole chunks: floored, and saturating at
/// UINT32_MAX, where a bare cast would be undefined. A budget that large
/// outlasts any round's demand. A NaN budget (a lognormal capacity whose
/// CV overflows its sigma) sells nothing, as `NaN >= 1.0` never held.
std::uint32_t whole_chunks(double chunks) {
  if (!(chunks >= 1.0)) return 0;
  return static_cast<std::uint32_t>(std::min(
      chunks, static_cast<double>(std::numeric_limits<std::uint32_t>::max())));
}

}  // namespace

StreamingProtocol::StreamingProtocol(ProtocolConfig config,
                                     sim::Simulator& simulator)
    : cfg_(std::move(config)),
      sim_(simulator),
      rng_(cfg_.seed),
      ledger_(cfg_.max_peers),
      overlay_(cfg_.max_peers,
               protocol_edge_cells(cfg_.max_peers, cfg_.overlay_mean_degree,
                                   cfg_.churn.join_links)),
      peers_(cfg_.max_peers, std::max<std::size_t>(cfg_.window_chunks, 1)),
      tax_(cfg_.tax, cfg_.max_peers) {
  CF_EXPECTS(cfg_.initial_peers >= 2);
  CF_EXPECTS(cfg_.initial_peers <= cfg_.max_peers);
  CF_EXPECTS(cfg_.round_seconds > 0.0);
  CF_EXPECTS(cfg_.stream_rate > 0.0);
  CF_EXPECTS(cfg_.window_chunks >= 4);
  CF_EXPECTS(cfg_.seed_fanout >= 1);
  CF_EXPECTS(cfg_.upload_capacity > 0.0);
  CF_EXPECTS(cfg_.base_spend_rate > 0.0);
  CF_EXPECTS(cfg_.max_purchase_attempts >= 1);
  CF_EXPECTS(cfg_.overlay_mean_degree > 0.0);
  // The selected pricing and spending rules' ranges.
  const econ::PricingParams& pricing = cfg_.pricing;
  switch (pricing.kind) {
    case econ::PricingKind::kUniform:
      CF_EXPECTS_MSG(pricing.uniform_price > 0,
                     "uniform price must be positive");
      break;
    case econ::PricingKind::kPoisson:
      CF_EXPECTS_MSG(pricing.poisson_mean > 0.0,
                     "poisson mean must be positive");
      // The inverse CDF starts at exp(-mean); once that is no longer a
      // normal double (mean above about 708.4) the CDF stalls below the
      // draw and prices pile up at the loop cap.
      CF_EXPECTS_MSG(std::isnormal(std::exp(-pricing.poisson_mean)),
                     "poisson mean too large: exp(-mean) underflows above "
                     "about 708");
      break;
    case econ::PricingKind::kPerSeller:
      CF_EXPECTS(pricing.per_seller_lo >= 1 &&
                 pricing.per_seller_lo <= pricing.per_seller_hi);
      break;
    case econ::PricingKind::kLinearSize:
      break;
  }
  if (cfg_.spending.dynamic) {
    CF_EXPECTS_MSG(cfg_.spending.dynamic_threshold > 0.0,
                   "dynamic spending threshold must be > 0");
  }
  if (cfg_.churn.enabled) {
    CF_EXPECTS(cfg_.churn.arrival_rate > 0.0);
    CF_EXPECTS(cfg_.churn.mean_lifespan > 0.0);
    CF_EXPECTS(cfg_.churn.join_links >= 1);
  }
  CF_EXPECTS(cfg_.churn.rejoin_mint_decay >= 0.0);
  CF_EXPECTS(cfg_.churn.rejoin_mint_decay <= 1.0);
  if (cfg_.strat.enabled()) {
    const auto& st = cfg_.strat;
    CF_EXPECTS(st.free_rider_fraction >= 0.0 && st.free_rider_fraction <= 1.0);
    CF_EXPECTS(st.whitewash_fraction >= 0.0 && st.whitewash_fraction <= 1.0);
    CF_EXPECTS(st.collude_fraction >= 0.0 && st.collude_fraction <= 1.0);
    CF_EXPECTS(st.staked_fraction >= 0.0 && st.staked_fraction <= 1.0);
    CF_EXPECTS_MSG(st.free_rider_fraction + st.whitewash_fraction +
                           st.collude_fraction + st.staked_fraction <=
                       1.0 + 1e-9,
                   "strategy fractions exceed the population");
    CF_EXPECTS(st.whitewash_threshold >= 0.0);
    CF_EXPECTS(st.collude_clique >= 2);
    CF_EXPECTS(st.stake_slash >= 0.0 && st.stake_slash <= 1.0);
    CF_EXPECTS(st.revalidate_rounds >= 1);
    strat_enabled_ = true;
    if (st.collude_fraction > 0.0) colluder_scratch_.reserve(cfg_.max_peers);
    if (st.staked_fraction > 0.0) staked_scratch_.reserve(cfg_.max_peers);
  }
  if (cfg_.injection.enabled) {
    CF_EXPECTS(cfg_.injection.interval_seconds > 0.0);
    CF_EXPECTS(cfg_.injection.credits_per_peer > 0);
  }
  if (cfg_.market_mode == ProtocolConfig::MarketMode::kOrderBook) {
    CF_EXPECTS(cfg_.book.min_price >= 1);
    CF_EXPECTS(cfg_.book.min_price <= cfg_.book.max_price);
    CF_EXPECTS(cfg_.book.base_price >= cfg_.book.min_price);
    CF_EXPECTS(cfg_.book.base_price <= cfg_.book.max_price);
    CF_EXPECTS(cfg_.book.reprice_rounds >= 1);
    CF_EXPECTS(cfg_.book.seller_fraction >= 0.0);
    CF_EXPECTS(cfg_.book.seller_fraction <= 1.0);
    CF_EXPECTS(cfg_.book.ask_markup >= 0.0);
    book_ = std::make_unique<market::OrderBook>(cfg_.max_peers,
                                                cfg_.book.max_price);
    book_price_.assign(cfg_.max_peers, cfg_.book.base_price);
    book_posted_.assign(cfg_.max_peers, 0);
    book_sold_.assign(cfg_.max_peers, 0);
  }
  using Cross = ProtocolConfig::OrderBookConfig::CrossStrategy;
  using Choice = ProtocolConfig::SellerChoice;
  if (book_ != nullptr ? cfg_.book.cross == Cross::kFillWeighted
                       : cfg_.seller_choice == Choice::kFillWeighted) {
    seller_rule_ = SellerRule::kWeighted;
  } else if (book_ != nullptr || cfg_.seller_choice == Choice::kCheapestAsk) {
    seller_rule_ = SellerRule::kCheapest;
  }
  upload_budget_.assign(cfg_.max_peers, 0);
  round_order_.reserve(cfg_.max_peers);  // churn may fill every slot
  tx_count_ = metrics_.counter_cell("market.transactions");
  tx_volume_ = metrics_.counter_cell("market.volume");
  liquidity_failures_ = metrics_.counter_cell("market.liquidity_failures");
  churn_arrivals_ = metrics_.counter_cell("churn.arrivals");
  churn_arrivals_dropped_ = metrics_.counter_cell("churn.arrivals_dropped");
  churn_departures_ = metrics_.counter_cell("churn.departures");
  phase_width_ct_[PurchaseCandidates::kDynamicWords] =
      metrics_.counter_cell("purchase.phase_generic");
  phase_width_ct_[1] = metrics_.counter_cell("purchase.phase_one_word");
  phase_width_ct_[2] = metrics_.counter_cell("purchase.phase_two_word");
  best_ask_stops_ = metrics_.counter_cell("purchase.best_ask_stops");
  whitewash_resets_ = metrics_.counter_cell("strat.whitewash_resets");
  whitewash_minted_ = metrics_.counter_cell("strat.whitewash_minted");
  whitewash_burned_ = metrics_.counter_cell("strat.whitewash_burned");
  collusion_volume_ = metrics_.counter_cell("strat.collusion_volume");
  stake_locked_ = metrics_.counter_cell("strat.stake_locked");
  stake_slashed_ = metrics_.counter_cell("strat.stake_slashed");
  stake_topups_ = metrics_.counter_cell("strat.stake_topups");
  book_asks_posted_ = metrics_.counter_cell("book.asks_posted");
  book_posted_qty_ = metrics_.counter_cell("book.posted_qty");
  book_fills_ = metrics_.counter_cell("book.fills");
  book_volume_ = metrics_.counter_cell("book.volume");
  book_asks_expired_ = metrics_.counter_cell("book.asks_expired");
  book_bids_posted_ = metrics_.counter_cell("book.bids_posted");
  book_bids_matched_ = metrics_.counter_cell("book.bids_matched");
  candidates_hist_ = metrics_.histogram_cell("purchase.candidates");
  queue_depth_hist_ = metrics_.histogram_cell("sim.queue_depth");
}

StreamingProtocol::~StreamingProtocol() {
  if (started_) sim_.detach(agent_);
}

void StreamingProtocol::on_event(std::uint8_t kind, std::uint32_t arg,
                                 double t) {
  switch (kind) {
    case kRound:
      run_round(t);
      sim_.schedule(t + cfg_.round_seconds, agent_, kRound);
      return;
    case kInjection: {
      const util::TraceSpan span("inject", "phase");
      for (PeerId id : overlay_.active_peers()) {
        ledger_.mint(id, cfg_.injection.credits_per_peer);
      }
      sim_.schedule(t + cfg_.injection.interval_seconds, agent_, kInjection);
      return;
    }
    case kArrival:
      handle_arrival(t);
      schedule_next_arrival();
      return;
    case kDeparture:
      if (overlay_.is_active(arg)) handle_departure(arg);
      return;
  }
}

std::vector<PeerId> StreamingProtocol::alive_peers() const {
  const auto alive = overlay_.active_peers();
  return std::vector<PeerId>(alive.begin(), alive.end());
}

ChunkId StreamingProtocol::stream_head() const { return head_at(sim_.now()); }

ChunkId StreamingProtocol::head_at(double t) const {
  // The stream is defined to have been live for one full window before the
  // market opens, so warm-started buffers have real chunks to hold.
  const double emitted = t * cfg_.stream_rate;
  CF_EXPECTS_MSG(emitted < 0x1p63,  // 2^63: the cast below stays defined
                 "stream head beyond 2^63 chunks (stream_rate too large)");
  return static_cast<ChunkId>(emitted) + cfg_.window_chunks;
}

Credits StreamingProtocol::rejoin_grant(std::uint32_t activation) const {
  // First occupancy of a slot always receives the full endowment; only a
  // re-activation of a previously used slot is subject to the rejoin-mint
  // policy (the whitewash loophole made an explicit knob).
  if (activation <= 1) return cfg_.initial_credits;
  switch (cfg_.churn.rejoin_mint) {
    case ChurnConfig::RejoinMint::kFull:
      return cfg_.initial_credits;
    case ChurnConfig::RejoinMint::kNone:
      return 0;
    case ChurnConfig::RejoinMint::kDecayed: {
      const double decayed =
          static_cast<double>(cfg_.initial_credits) *
          std::pow(cfg_.churn.rejoin_mint_decay,
                   static_cast<double>(activation - 1));
      return static_cast<Credits>(std::llround(decayed));
    }
  }
  return cfg_.initial_credits;
}

Credits StreamingProtocol::activate_peer(PeerId id, double now) {
  const std::uint32_t activation = peers_.bump_activations(id);
  peers_.set_strategy(id, strat_enabled_ ? strategy::assign(id, cfg_.strat)
                                         : strategy::Strategy::kHonest);
  peers_.reset_slot(id, now);
  peers_.set_upload_capacity(
      id, cfg_.heterogeneity.upload_capacity_cv > 0.0
              ? rng_.lognormal_mean_cv(cfg_.upload_capacity,
                                       cfg_.heterogeneity.upload_capacity_cv)
              : cfg_.upload_capacity);
  peers_.set_base_spend_rate(
      id, cfg_.heterogeneity.spend_rate_cv > 0.0
              ? rng_.lognormal_mean_cv(cfg_.base_spend_rate,
                                       cfg_.heterogeneity.spend_rate_cv)
              : cfg_.base_spend_rate);
  const ChunkId head = head_at(now);
  const ChunkId base = head - cfg_.window_chunks;
  peers_.reset_window(id, base);
  // Warm start: join holding most of the current window, as a peer that has
  // been streaming for a while (or bootstrapped quickly) would.
  if (cfg_.warm_start_fill > 0.0) {
    for (ChunkId c = base; c < head; ++c) {
      if (rng_.bernoulli(cfg_.warm_start_fill)) peers_.set(id, c);
    }
  }
  const Credits grant = rejoin_grant(activation);
  ledger_.mint(id, grant);
  if (strat_enabled_ &&
      peers_.strategy(id) == strategy::Strategy::kStakedSeeder &&
      cfg_.strat.stake_amount > 0) {
    // Stake-bonded seeders lock part of their endowment on arrival; the
    // bond gates ask posting and is slashed on departure.
    *stake_locked_ += ledger_.lock_stake(id, cfg_.strat.stake_amount);
  }
  if (book_ != nullptr) {
    // Recycled-slot hygiene: the previous occupant's market state (resting
    // orders, learned price) must not leak into the arrival.
    (void)book_->cancel_ask(id);
    (void)book_->cancel_bid(id);
    book_price_[id] = cfg_.book.base_price;
    book_posted_[id] = 0;
    book_sold_[id] = 0;
  }
  return grant;
}

void StreamingProtocol::start() {
  CF_EXPECTS_MSG(!started_, "protocol already started");
  agent_ = sim_.attach(*this);
  started_ = true;

  // Static bootstrap overlay: scale-free with the paper's exponent; the
  // mean degree is configurable (the paper's default is 20).
  graph::ScaleFreeParams sf;
  sf.exponent = 2.5;
  sf.target_mean_degree = cfg_.overlay_mean_degree;
  auto bootstrap = graph::scale_free(cfg_.initial_peers, sf, rng_);
  overlay_.init_from_graph(bootstrap);
  for (PeerId id = 0; id < cfg_.initial_peers; ++id) {
    activate_peer(id, sim_.now());
    // Under churn the bootstrap cohort is mortal too, so the population
    // settles at arrival_rate × mean_lifespan rather than stacking the
    // immortal initial peers on top of the churning ones.
    if (cfg_.churn.enabled) schedule_departure(id, sim_.now());
  }

  sim_.schedule(sim_.now() + cfg_.round_seconds, agent_, kRound);
  if (cfg_.churn.enabled) schedule_next_arrival();
  if (cfg_.injection.enabled) {
    sim_.schedule(sim_.now() + cfg_.injection.interval_seconds, agent_,
                  kInjection);
  }
}

void StreamingProtocol::schedule_next_arrival() {
  const double dt = rng_.exponential(cfg_.churn.arrival_rate);
  sim_.schedule(sim_.now() + dt, agent_, kArrival);
}

void StreamingProtocol::schedule_departure(PeerId id, double now) {
  sim_.schedule(now + rng_.exponential(1.0 / cfg_.churn.mean_lifespan),
                agent_, kDeparture, id);
}

void StreamingProtocol::handle_arrival(double now) {
  const util::TraceSpan span("churn.arrival", "churn");
  // Alive peers and active overlay slots are the same set (join/leave and
  // activate/departure always move together), so the overlay's activity
  // bitmap answers "lowest free slot" in a word scan.
  const auto slot = overlay_.lowest_inactive_slot();
  if (!slot) {
    // Log once; the counter tracks the rest (repeat warnings would flood
    // long runs that are intentionally driven at capacity).
    if (*churn_arrivals_dropped_ == 0) {
      CF_LOG_WARN("arrival dropped: no free peer slot (capacity "
                  << peers_.size() << "); further drops counted silently");
    }
    ++*churn_arrivals_dropped_;
    return;
  }
  const PeerId id = *slot;
  activate_peer(id, now);
  overlay_.join(id, cfg_.churn.join_links, rng_);
  ++*churn_arrivals_;
  schedule_departure(id, now);
}

void StreamingProtocol::handle_departure(PeerId id) {
  const util::TraceSpan span("churn.departure", "churn", "peer", id);
  CF_EXPECTS(overlay_.is_active(id));
  if (strat_enabled_ && ledger_.staked(id) > 0) {
    // Bond resolution precedes the exit burn: the slashed share moves to
    // the treasury, the remainder is released to the balance and leaves
    // with the peer below. Supply stays conserved either way.
    *stake_slashed_ += ledger_.slash_stake(id, cfg_.strat.stake_slash);
  }
  // The departing peer takes its credits out of the market.
  ledger_.burn_all(id);
  ++*churn_departures_;
  tax_.forget_peer(id);
  overlay_.leave(id);
  // Nothing reads a dead slot's window, but an empty ownership row keeps a
  // stale neighbor-list entry from ever yielding a purchase candidate.
  peers_.reset_window(id, peers_.base(id));
  if (book_ != nullptr) {
    // Seller churn expires its resting ask immediately — no ghost supply.
    if (book_->cancel_ask(id)) ++*book_asks_expired_;
    (void)book_->cancel_bid(id);
  }
}

void StreamingProtocol::seed_new_chunks(double now, ChunkId head) {
  // Chunks created since the previous round get pushed to seed_fanout
  // random alive peers each, free of charge (the source is the provider).
  // Only the newest window_chunks of them can land: every alive window
  // starts at head - window_chunks by now, and PeerTable::set refuses older
  // chunks.
  const ChunkId first =
      std::max(head_at(std::max(now - cfg_.round_seconds, 0.0)),
               head - cfg_.window_chunks);
  const std::span<const PeerId> alive = overlay_.active_peers();
  if (alive.empty()) return;
  // Stake-bonded seeders advertise themselves to the source: peers whose
  // bond is fully posted form a priority pool that receives the first copy
  // of every fresh chunk, which is what the stake buys.
  const bool staked_priority =
      strat_enabled_ && cfg_.strat.staked_fraction > 0.0;
  if (staked_priority) {
    staked_scratch_.clear();
    for (const PeerId id : alive) {
      if (peers_.strategy(id) == strategy::Strategy::kStakedSeeder &&
          (cfg_.strat.stake_amount == 0 ||
           ledger_.staked(id) >= cfg_.strat.stake_amount)) {
        staked_scratch_.push_back(id);
      }
    }
  }
  for (ChunkId c = first; c < head; ++c) {
    for (std::size_t k = 0; k < cfg_.seed_fanout; ++k) {
      if (k == 0 && staked_priority && !staked_scratch_.empty()) {
        const PeerId bonded =
            staked_scratch_[rng_.uniform_index(staked_scratch_.size())];
        if (peers_.set(bonded, c)) ++peers_.chunks_seeded(bonded);
        continue;
      }
      // Deficit-based seeding: the source prefers starving peers — sample a
      // few candidates and push to the emptiest buffer, the way a
      // server-assisted swarm directs its own upload where the swarm is
      // thinnest. This also keeps bankrupt peers holding something sellable,
      // so bankruptcy stays an economic state, not an absorbing one.
      PeerId target = alive[rng_.uniform_index(alive.size())];
      if (cfg_.deficit_seeding) {
        for (std::size_t probe = 0; probe < 3; ++probe) {
          const PeerId other = alive[rng_.uniform_index(alive.size())];
          if (peers_.count(other) < peers_.count(target)) target = other;
        }
      }
      if (peers_.set(target, c)) ++peers_.chunks_seeded(target);
    }
  }
}

void StreamingProtocol::run_round(double now) {
  const util::TraceSpan round_span("round", "phase", "round", rounds_ + 1);
  ++rounds_;
  queue_depth_hist_->add(sim_.pending_events());
  const ChunkId head = head_at(now);
  const ChunkId window_base = head - cfg_.window_chunks;

  // 1. Advance playback windows and refresh upload budgets.
  const auto active = overlay_.active_peers();
  round_order_.assign(active.begin(), active.end());
  for (PeerId id : round_order_) {
    peers_.advance(id, window_base);
    upload_budget_[id] =
        whole_chunks(peers_.upload_capacity(id) * cfg_.round_seconds);
  }

  // 1a. Strategy layer: free-riders contribute nothing (budget zeroed
  // before asks are posted or purchases served), and staked seeders get a
  // periodic chance to top a partially funded bond back up to target.
  if (strat_enabled_ && cfg_.strat.free_rider_fraction > 0.0) {
    strategy_zero_free_rider_budgets();
  }
  if (strat_enabled_ && cfg_.strat.staked_fraction > 0.0 &&
      cfg_.strat.stake_amount > 0 &&
      rounds_ % cfg_.strat.revalidate_rounds == 0) {
    strategy_revalidate_stakes();
  }

  // 1b. Order-book market: sellers post this round's asks before anyone
  // buys (quantity = fresh upload budget, price per the ask policy); a
  // peer that posts none sells nothing this round.
  if (book_ != nullptr) {
    book_round_fills_base_ = *book_fills_;
    book_round_volume_base_ = *book_volume_;
    book_round_posted_base_ = *book_posted_qty_;
    book_post_asks();
  }

  // 2. Source emits and seeds fresh chunks.
  {
    const util::TraceSpan span("seed", "phase");
    const auto seed_start = std::chrono::steady_clock::now();
    seed_new_chunks(now, head);
    seed_phase_seconds_ += std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - seed_start)
                               .count();
  }

  // 3. Purchase phase in random peer order (fairness).
  rng_.shuffle(round_order_);
  {
    const util::TraceSpan span("purchase", "phase");
    const auto phase_start = std::chrono::steady_clock::now();
    for (PeerId id : round_order_) {
      peer_purchase_phase(id, now);
    }
    purchase_phase_seconds_ += std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() -
                                   phase_start)
                                   .count();
  }

  // 3b. Collusive cliques wash credits among themselves after the honest
  // trading phase (the laundering rides on top of real trade state).
  if (strat_enabled_ && cfg_.strat.collude_fraction > 0.0) {
    strategy_collusion_round();
  }

  // 4. Taxation redistribution when the treasury is full enough.
  if (cfg_.tax.enabled && overlay_.num_active() > 0) {
    const util::TraceSpan span("tax", "phase");
    const auto tax_start = std::chrono::steady_clock::now();
    while (tax_.try_redistribute(overlay_.num_active())) {
      ledger_.redistribute(overlay_.active_peers());
    }
    tax_phase_seconds_ += std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - tax_start)
                              .count();
  }

  // 4b. Whitewashers check their balance after taxes settle and cycle
  // their identity when broke — a real departure plus a real re-arrival,
  // exploiting whatever the rejoin-mint policy grants.
  if (strat_enabled_ && cfg_.strat.whitewash_fraction > 0.0) {
    strategy_whitewash_round(now);
  }

  // Book readouts for the series sampler: state at round end, flow over
  // this round (clearing price = volume-weighted mean transacted price).
  if (book_ != nullptr) {
    const std::uint64_t fills = *book_fills_ - book_round_fills_base_;
    const std::uint64_t volume = *book_volume_ - book_round_volume_base_;
    const std::uint64_t posted = *book_posted_qty_ - book_round_posted_base_;
    book_stats_.depth = static_cast<double>(book_->depth());
    book_stats_.spread = static_cast<double>(book_->spread());
    book_stats_.clearing_price =
        fills > 0 ? static_cast<double>(volume) / static_cast<double>(fills)
                  : 0.0;
    book_stats_.fill_ratio =
        posted > 0 ? static_cast<double>(fills) / static_cast<double>(posted)
                   : 0.0;
  }

  if (round_hook_) round_hook_(rounds_, now);
}

void StreamingProtocol::strategy_zero_free_rider_budgets() {
  for (const PeerId id : round_order_) {
    if (peers_.strategy(id) == strategy::Strategy::kFreeRider) {
      upload_budget_[id] = 0;
    }
  }
}

void StreamingProtocol::strategy_revalidate_stakes() {
  for (const PeerId id : overlay_.active_peers()) {
    if (peers_.strategy(id) != strategy::Strategy::kStakedSeeder) continue;
    const Credits moved = ledger_.lock_stake(id, cfg_.strat.stake_amount);
    if (moved > 0) {
      *stake_locked_ += moved;
      ++*stake_topups_;
    }
  }
}

void StreamingProtocol::strategy_collusion_round() {
  // Deterministic ring transfers inside fixed cliques: colluders (in slot
  // order) are chopped into groups of collude_clique, and each member
  // passes collude_amount to the next around the ring. The wash trades
  // bypass the trade path entirely — no tax is collected and no trace is
  // emitted, which is exactly the evasion being modeled. Each member's
  // earned/spent counters inflate symmetrically, faking contribution.
  colluder_scratch_.clear();
  for (const PeerId id : overlay_.active_peers()) {
    if (peers_.strategy(id) == strategy::Strategy::kColluder) {
      colluder_scratch_.push_back(id);
    }
  }
  const std::size_t k = cfg_.strat.collude_clique;
  const Credits amt = cfg_.strat.collude_amount;
  for (std::size_t base = 0; base + k <= colluder_scratch_.size();
       base += k) {
    for (std::size_t i = 0; i < k; ++i) {
      const PeerId from = colluder_scratch_[base + i];
      const PeerId to = colluder_scratch_[base + (i + 1) % k];
      if (!ledger_.transfer(from, to, amt)) continue;
      peers_.credits_spent(from) += amt;
      peers_.credits_earned(to) += amt;
      *collusion_volume_ += amt;
    }
  }
}

void StreamingProtocol::strategy_whitewash_round(double now) {
  // round_order_ is a stable copy of the round's alive set, so departing
  // and re-activating peers mid-iteration is safe. A reset is a genuine
  // departure (burn, overlay leave, churn counters) followed by a genuine
  // re-arrival into the same slot — the activation count survives, so the
  // rejoin-mint policy sees through the identity cycling. Under churn the
  // rejoined peer inherits the slot's pending lifespan timer; the earlier
  // of its own exit and that timer removes it, which only shortens the
  // attacker's tenure.
  for (const PeerId id : round_order_) {
    if (!overlay_.is_active(id)) continue;
    if (peers_.strategy(id) != strategy::Strategy::kWhitewasher) continue;
    const Credits bal = ledger_.balance(id);
    if (static_cast<double>(bal) >= cfg_.strat.whitewash_threshold) continue;
    // Rational attacker: cycling is only worth it when the regrant beats
    // the balance forfeited at departure.
    if (rejoin_grant(peers_.activations(id) + 1) <= bal) continue;
    *whitewash_burned_ += bal;
    handle_departure(id);
    const Credits granted = activate_peer(id, now);
    overlay_.join(id, cfg_.churn.join_links, rng_);
    *whitewash_minted_ += granted;
    ++*whitewash_resets_;
  }
}

strategy::Breakdown StreamingProtocol::strategy_breakdown() const {
  strategy::Breakdown b;
  for (const PeerId id : overlay_.active_peers()) {
    const auto s = static_cast<std::size_t>(peers_.strategy(id));
    ++b.population[s];
    b.credits[s] += static_cast<double>(ledger_.balance(id));
    b.buffer_fill[s] += peers_.fill(id);
  }
  b.staked_total = static_cast<double>(ledger_.total_staked());
  return b;
}

void StreamingProtocol::book_post_asks() {
  const util::TraceSpan span("book.post", "phase");
  const auto& bc = cfg_.book;
  const bool adaptive =
      bc.ask_pricing == ProtocolConfig::OrderBookConfig::AskPricing::kAdaptive;
  // Adaptive tâtonnement thresholds: an ask that mostly sold was priced
  // under the market (raise), one that barely sold was priced over it
  // (cut). The band between them is the dead zone that lets prices settle.
  constexpr double kFillHi = 0.6;
  constexpr double kFillLo = 0.1;
  const bool reprice_now =
      adaptive && rounds_ % bc.reprice_rounds == 0;
  econ::Credits fixed_price = bc.base_price;
  if (!adaptive) {
    const auto marked = static_cast<econ::Credits>(std::llround(
        static_cast<double>(bc.base_price) * (1.0 + bc.ask_markup)));
    fixed_price = std::clamp(marked, bc.min_price, bc.max_price);
  }
  // The seller test reads only the upload budget, so every peer that posts
  // no ask leaves here with none; a posted ask's quantity is the budget,
  // and a sale takes one unit off both.
  for (const PeerId id : overlay_.active_peers()) {
    if (!is_book_seller(id)) {
      upload_budget_[id] = 0;
      continue;
    }
    if (strat_enabled_) {
      const auto s = peers_.strategy(id);
      if (s == strategy::Strategy::kFreeRider) continue;  // budget zeroed
      if (s == strategy::Strategy::kStakedSeeder &&
          cfg_.strat.stake_amount > 0 &&
          ledger_.staked(id) < cfg_.strat.stake_amount) {
        // Advertising is gated on a fully posted bond; an underfunded
        // seeder's resting ask expires rather than standing as supply it
        // has not bonded for.
        if (book_->cancel_ask(id)) ++*book_asks_expired_;
        upload_budget_[id] = 0;
        continue;
      }
    }
    const std::uint32_t qty = upload_budget_[id];
    if (qty == 0) {
      // No capacity to offer this round: an ask left resting would be
      // ghost supply, so it expires (drain expiry).
      if (book_->cancel_ask(id)) ++*book_asks_expired_;
      continue;
    }
    econ::Credits price = fixed_price;
    if (adaptive) {
      if (reprice_now && book_posted_[id] > 0) {
        const double fill = static_cast<double>(book_sold_[id]) /
                            static_cast<double>(book_posted_[id]);
        if (fill >= kFillHi && book_price_[id] < bc.max_price) {
          ++book_price_[id];
        } else if (fill <= kFillLo && book_price_[id] > bc.min_price) {
          --book_price_[id];
        }
        book_posted_[id] = 0;
        book_sold_[id] = 0;
      }
      price = book_price_[id];
      book_posted_[id] += qty;
    }
    book_->post_ask(id, price, qty);
    ++*book_asks_posted_;
    *book_posted_qty_ += qty;
  }
  ask_floor_ = book_->best_price();
}

bool StreamingProtocol::is_book_seller(PeerId id) const {
  if (cfg_.book.seller_fraction >= 1.0) return true;
  if (cfg_.book.seller_fraction <= 0.0) return false;
  // SplitMix64-style finalizer over the id — no RNG draw, so the seller
  // set is a pure function of the slot id and stays fixed under churn.
  std::uint64_t h =
      (static_cast<std::uint64_t>(id) + 1) * 0x9E3779B97F4A7C15ULL;
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 32;
  return static_cast<double>(h & 0xFFFFFF) <
         cfg_.book.seller_fraction * 16777216.0;
}

template <std::size_t Words>
bool StreamingProtocol::choose_seller(ChunkId chunk, PeerId& seller) {
  const auto sellers = candidates_.sellers<Words>(chunk);
  const market::OrderBook* book = book_.get();
  switch (seller_rule_) {
    case SellerRule::kUniform: {
      // Availability-driven routing (the paper's transfer probabilities):
      // uniform among the neighbors that own the chunk and can still sell.
      // Capacity shapes income only through saturation (the seller test),
      // so λ_i is wealth-independent — the Jackson structure.
      const std::size_t num_sellers = sellers.count();
      if (num_sellers == 0) return false;
      seller = sellers.nth(uniform_pick(num_sellers));
      return true;
    }
    case SellerRule::kWeighted:
      // Direct: the buffer fill concentrates demand on chunk-rich
      // (typically wealthy) peers, the rich-get-richer ablation. Book: deep
      // asks absorb proportionally more flow than a best-ask stampede
      // would send them.
      seller_weights_.clear();
      sellers.for_each([&](PeerId candidate) {
        seller_weights_.push_back(
            book != nullptr
                ? static_cast<double>(book->ask_quantity(candidate))
                : static_cast<double>(peers_.count(candidate)) + 1.0);
      });
      if (seller_weights_.empty()) return false;
      seller = sellers.nth(rng_.discrete(seller_weights_));
      return true;
    case SellerRule::kCheapest: {
      // Procurement auction or price-time priority: a min-scan on
      // (price, seq). Posted prices carry seq 0, so ties go to the earliest
      // neighbor in list order; ask seqs are unique.
      bool found = false;
      std::pair<econ::Credits, std::uint64_t> best;
      sellers.for_each([&](PeerId candidate) {
        const auto key =
            book != nullptr
                ? std::pair{book->ask_price(candidate), book->ask_seq(candidate)}
                : std::pair{econ::price(cfg_.pricing, candidate, chunk),
                            std::uint64_t{0}};
        if (!found || key < best) {
          found = true;
          best = key;
          seller = candidate;
        }
      });
      return found;
    }
  }
  return false;
}

template <std::size_t Words>
void StreamingProtocol::buy_missing(PeerId buyer_id, std::size_t purchase_cap,
                                    double budget, double now) {
  using Cross = ProtocolConfig::OrderBookConfig::CrossStrategy;
  const bool book_mode = book_ != nullptr;
  const bool limit = book_mode && cfg_.book.cross == Cross::kLimit;
  // Under best-ask crossing no candidate asks less than the book's floor,
  // and a visit draws nothing: once the budget is under the floor, every
  // visit left would skip at price > budget and change nothing. Limit
  // crossing rests bids on over-limit visits, and fill-weighted crossing
  // draws per visit, so both walk on.
  const bool floor_stops = book_mode && cfg_.book.cross == Cross::kBestAsk;
  const auto under_floor = [&] {
    if (!floor_stops || budget >= static_cast<double>(ask_floor_)) {
      return false;
    }
    ++*best_ask_stops_;
    return true;
  };
  if (under_floor()) return;
  std::size_t purchased = 0;
  // Each visit returns whether to go on: only a purchase spends budget,
  // fills the cap or raises the floor, so only a purchase can end the
  // walk.
  candidates_.for_each_reachable([&](ChunkId chunk) {
    PeerId seller_id = 0;
    if (!choose_seller<Words>(chunk, seller_id)) return true;
    const econ::Credits price =
        book_mode ? book_->ask_price(seller_id)
                  : econ::price(cfg_.pricing, seller_id, chunk);
    if (limit && price > cfg_.book.limit_price) {
      // The market is above the buyer's limit: rest a bid (standing intent,
      // re-posting refreshes it) and wait for asks to come down.
      if (!book_->has_bid(buyer_id)) ++*book_bids_posted_;
      book_->post_bid(buyer_id, cfg_.book.limit_price);
      return true;
    }
    // Cheaper chunks later in the window may still fit the budget.
    if (static_cast<double>(price) > budget) return true;
    if (price > 0 && !ledger_.transfer(buyer_id, seller_id, price)) {
      ++*liquidity_failures_;
      return true;
    }

    // Delivery.
    const bool fresh = peers_.set(buyer_id, chunk);
    CF_ENSURES_MSG(fresh, "purchased a chunk already held");
    --upload_budget_[seller_id];
    if (book_mode) {
      // Partial fill: one unit off the resting ask and the budget alike,
      // so the ask expires in place when the budget runs out.
      ++*book_fills_;
      *book_volume_ += price;
      ++book_sold_[seller_id];
      if (book_->fill_one(seller_id) == 0) {
        ask_floor_ = book_->best_price(ask_floor_);
      }
      if (book_->has_bid(buyer_id) && price <= book_->bid_limit(buyer_id)) {
        book_->cancel_bid(buyer_id);
        ++*book_bids_matched_;
      }
    }
    // A drained seller leaves every mask.
    if (!sells(seller_id)) candidates_.remove(seller_id);
    budget -= static_cast<double>(price);
    ++purchased;

    peers_.credits_spent(buyer_id) += price;
    peers_.credits_earned(seller_id) += price;
    ++peers_.chunks_downloaded(buyer_id);
    trace_.record(now, buyer_id, seller_id, chunk, price);
    ++*tx_count_;
    *tx_volume_ += price;

    // Income taxation above the wealth threshold (Sec. VI-C).
    if (cfg_.tax.enabled && price > 0) {
      const auto due =
          tax_.on_income(seller_id, price, ledger_.balance(seller_id));
      if (due > 0) {
        const auto collected = ledger_.collect_tax(seller_id, due);
        CF_ENSURES_MSG(collected == due,
                       "tax engine asked for more than the balance");
      }
    }
    return purchased < purchase_cap && budget > 0.0 && !under_floor();
  });
}

void StreamingProtocol::peer_purchase_phase(PeerId buyer_id, double now) {
  if (!overlay_.is_active(buyer_id)) return;  // departed mid-round

  const double budget = round_budget(
      cfg_.spending, peers_.base_spend_rate(buyer_id),
      ledger_.balance(buyer_id), cfg_.round_seconds);
  if (budget <= 0.0) return;

  const std::size_t missing = peers_.window() - peers_.count(buyer_id);
  if (missing == 0) return;
  const std::span<const PeerId> neighbors = overlay_.neighbors(buyer_id);
  if (neighbors.empty()) return;

  // Liquidity management: at or below the reserve, only keep pace with the
  // stream instead of catching up on backlog. The cap bounds successful
  // purchases (spending), not scan attempts — availability misses must not
  // eat the allowance or low-liquidity peers could never refill.
  std::size_t purchase_cap = std::min(missing, cfg_.max_purchase_attempts);
  if (static_cast<double>(ledger_.balance(buyer_id)) <=
      cfg_.reserve_credits) {
    const auto keep_pace = static_cast<std::size_t>(
        std::ceil(cfg_.stream_rate * cfg_.round_seconds));
    purchase_cap = std::max<std::size_t>(1, keep_pace);
  }

  // Resolve the sellers of every wanted chunk up front: one OR and one AND
  // walk over the neighbors' ownership rows instead of a neighbor rescan
  // per chunk. Freshest-first: a fresh chunk stays sellable for the whole
  // window while a chunk at the eviction edge is nearly worthless, so the
  // buyer wants its newest max_purchase_attempts missing chunks and buys
  // newest to oldest (the standard mesh-pull priority once playback urgency
  // is folded into the window itself). Sound within one buyer phase:
  // sellers' ownership and aliveness cannot change until the phase ends
  // (only this buyer gains chunks, and churn events never interleave with
  // a round), and budgets and asks only shrink, on a sale to this buyer —
  // after which a failing seller leaves every mask.
  candidates_.build(
      peers_, buyer_id, neighbors, [this](PeerId nbr) { return sells(nbr); },
      cfg_.max_purchase_attempts);
  candidates_hist_->add(candidates_.eligible().size());
  ++*phase_width_ct_[candidates_.width()];
  switch (candidates_.width()) {
    case 1:
      buy_missing<1>(buyer_id, purchase_cap, budget, now);
      break;
    case 2:
      buy_missing<2>(buyer_id, purchase_cap, budget, now);
      break;
    default:
      buy_missing<PurchaseCandidates::kDynamicWords>(buyer_id, purchase_cap,
                                                     budget, now);
  }
}

std::size_t StreamingProtocol::uniform_pick(std::size_t num_candidates) {
  const double u = rng_.uniform() * static_cast<double>(num_candidates);
  std::size_t pick =
      u <= 1.0 ? 0 : static_cast<std::size_t>(std::ceil(u)) - 1;
  if (pick >= num_candidates) pick = num_candidates - 1;
  return pick;
}

std::vector<double> StreamingProtocol::balance_snapshot() const {
  std::vector<double> out;
  balance_snapshot(out);
  return out;
}

void StreamingProtocol::balance_snapshot(std::vector<double>& out) const {
  ledger_.snapshot(overlay_.active_peers(), out);
}

std::vector<double> StreamingProtocol::spend_rate_snapshot() const {
  std::vector<double> rates;
  spend_rate_snapshot(rates);
  return rates;
}

void StreamingProtocol::spend_rate_snapshot(std::vector<double>& out) const {
  const auto alive = overlay_.active_peers();
  out.clear();
  out.reserve(alive.size());
  const double now = sim_.now();
  for (PeerId id : alive) {
    out.push_back(peers_.lifetime_spend_rate(id, now));
  }
}

void StreamingProtocol::begin_rate_window() {
  spent_marker_.resize(peers_.size());
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    spent_marker_[i] = peers_.credits_spent(i);
  }
  marker_time_ = sim_.now();
}

std::vector<double> StreamingProtocol::windowed_spend_rates() const {
  std::vector<double> rates;
  windowed_spend_rates(rates);
  return rates;
}

void StreamingProtocol::windowed_spend_rates(
    std::vector<double>& out) const {
  CF_EXPECTS_MSG(marker_time_ >= 0.0, "begin_rate_window was never called");
  const double dt = sim_.now() - marker_time_;
  CF_EXPECTS_MSG(dt > 0.0, "rate window has zero length");
  const auto alive = overlay_.active_peers();
  out.clear();
  out.reserve(alive.size());
  for (PeerId id : alive) {
    // A slot activated inside the window restarted its counter at 0 then,
    // so all of its spending falls in the window.
    std::uint64_t spent = peers_.credits_spent(id);
    if (peers_.join_time(id) < marker_time_) spent -= spent_marker_[id];
    out.push_back(static_cast<double>(spent) / dt);
  }
}

std::vector<double> StreamingProtocol::download_rate_snapshot() const {
  std::vector<double> rates;
  download_rate_snapshot(rates);
  return rates;
}

void StreamingProtocol::download_rate_snapshot(
    std::vector<double>& out) const {
  const auto alive = overlay_.active_peers();
  out.clear();
  out.reserve(alive.size());
  const double now = sim_.now();
  for (PeerId id : alive) {
    out.push_back(peers_.lifetime_download_rate(id, now));
  }
}

double StreamingProtocol::mean_buffer_fill() const {
  const auto alive = overlay_.active_peers();
  if (alive.empty()) return 0.0;
  double total = 0.0;
  for (PeerId id : alive) total += peers_.fill(id);
  return total / static_cast<double>(alive.size());
}

}  // namespace creditflow::p2p
