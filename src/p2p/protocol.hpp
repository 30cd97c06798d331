// CreditFlow: the mesh-pull (UUSee-like) P2P live-streaming protocol with
// credit-incentivized chunk exchange — the simulation substrate of Sec. VI
// of the paper, rebuilt in C++.
//
// The protocol is round-based on top of the discrete-event simulator:
// every round the source emits new chunks and seeds a few peers for free;
// every peer then advances its playback window and tries to *buy* its
// missing chunks from neighbors that have them, paying the seller's price
// per chunk from its credit balance. Sellers are bandwidth-limited
// (upload_capacity chunks/sec) and buyers are budget-limited (their
// spending rule caps credits/round, and purchases require liquidity).
// Seller choice is weighted by chunk availability at the neighbors, exactly
// as the paper configures its transfer probabilities.
//
// Optional mechanisms, matching the paper's experiment sections:
//  * taxation with threshold + redistribution (Sec. VI-C),
//  * dynamic spending-rate adjustment (Sec. VI-D),
//  * peer churn — Poisson arrivals, exponential lifespans; arriving peers
//    mint fresh credits, departing peers take their balance away
//    (Sec. VI-E, the open-network market).
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "econ/pricing.hpp"
#include "econ/taxation.hpp"
#include "market/order_book.hpp"
#include "p2p/ledger.hpp"
#include "p2p/overlay.hpp"
#include "p2p/peer.hpp"
#include "p2p/purchase_candidates.hpp"
#include "p2p/spending.hpp"
#include "p2p/trace.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "strategy/strategy.hpp"
#include "util/rng.hpp"

namespace creditflow::p2p {

/// Churn (open-market) parameters.
struct ChurnConfig {
  bool enabled = false;
  double arrival_rate = 1.0;    ///< peers per second (Poisson)
  double mean_lifespan = 500.0; ///< seconds (exponential)
  std::size_t join_links = 10;  ///< preferential-attachment links per join

  /// Mint-on-(re)arrival policy. Historically every arrival minted the
  /// full `initial_credits` endowment while every departure burned the
  /// balance — which makes leave/rejoin a free debt reset (the whitewash
  /// loophole). The policy is now explicit, keyed on the *slot's*
  /// activation count (the only identity the open market has):
  ///  * kFull    — every activation mints initial_credits (the historical
  ///    behavior; byte-identical default).
  ///  * kNone    — only a slot's first activation mints; recycled slots
  ///    arrive broke.
  ///  * kDecayed — activation k mints
  ///    round(initial_credits * rejoin_mint_decay^(k-1)).
  enum class RejoinMint { kFull = 0, kNone = 1, kDecayed = 2 };
  RejoinMint rejoin_mint = RejoinMint::kFull;
  double rejoin_mint_decay = 0.5;  ///< per-reactivation decay for kDecayed
};

/// Heterogeneity of peer capabilities — the lever that makes the utilization
/// profile asymmetric (Fig. 8) or symmetric (Fig. 7).
struct HeterogeneityConfig {
  double upload_capacity_cv = 0.0;  ///< lognormal CV of upload capacity
  double spend_rate_cv = 0.0;       ///< lognormal CV of base spending rate
};

/// Full protocol configuration.
struct ProtocolConfig {
  std::size_t max_peers = 1536;    ///< slot capacity (churn headroom)
  std::size_t initial_peers = 1000;
  Credits initial_credits = 100;   ///< c — each peer's endowment

  double round_seconds = 1.0;
  double stream_rate = 2.0;        ///< chunks emitted per second
  std::size_t window_chunks = 48;  ///< playback window size
  std::size_t seed_fanout = 6;     ///< free copies of each fresh chunk

  /// Target mean degree of the bootstrap scale-free overlay (and the knob
  /// that sizes the purchase phase's candidate sets).
  double overlay_mean_degree = 20.0;

  /// Mean chunks/sec a peer can serve. The ratio to stream_rate is the
  /// system's capacity headroom: at ~1.25x the swarm is supply-limited and
  /// every peer's income saturates near the stream rate (the paper's
  /// symmetric-utilization streaming case, Sec. V-C); large headroom lets
  /// high-degree hubs capture unbounded demand and wealth condenses onto
  /// the "connection-affluent" peers the introduction warns about.
  double upload_capacity = 2.5;
  double base_spend_rate = 6.0;    ///< mean μ^s in credits/sec
  std::size_t max_purchase_attempts = 48;  ///< per peer per round

  /// Fraction of the window each peer starts holding (warm start — the
  /// market begins in a healthy streaming state instead of a cold-start
  /// scramble that immediately bankrupts the unlucky).
  double warm_start_fill = 0.85;

  /// Liquidity management ("a user should strike to maintain its credit
  /// pool at a healthy level", Sec. III-A): when the balance is at or below
  /// `reserve_credits`, a peer stops catching up on backlog and only buys
  /// enough fresh chunks to keep pace with the stream rate. The reserve is
  /// an absolute amount (a few seconds of playback at mean price), NOT
  /// proportional to the endowment c — so it stabilizes poor markets while
  /// leaving rich markets free to drift, which is exactly the
  /// Gini-grows-with-c behaviour the paper reports.
  double reserve_credits = 8.0;

  /// Deficit-based seeding: the source pushes fresh chunks toward the
  /// emptiest buffers (server-assisted swarm). Disabling it reverts to
  /// uniform-random seeding, removing the income floor that lets bankrupt
  /// peers recover — one of the "careful design" ingredients whose absence
  /// the paper's condensed configuration illustrates.
  bool deficit_seeding = true;

  /// How a buyer picks among the neighbors that own a wanted chunk (and
  /// still have upload budget):
  ///  * kAvailabilityUniform — uniform among owners; the paper's
  ///    availability-driven transfer probabilities (default).
  ///  * kFillWeighted — weight by the seller's buffer fill; concentrates
  ///    demand on chunk-rich (typically wealthy) peers — the
  ///    rich-get-richer ablation behind the paper's Fig. 1 condensed case.
  ///  * kCheapestAsk — solicit asks and buy from the cheapest owner
  ///    (first-price procurement auction); the auction-based pricing the
  ///    paper defers to future work.
  enum class SellerChoice { kAvailabilityUniform, kFillWeighted, kCheapestAsk };
  SellerChoice seller_choice = SellerChoice::kAvailabilityUniform;

  /// How purchases clear:
  ///  * kDirect — the paper's market: the buyer picks a seller per
  ///    seller_choice and pays the pricing rule's posted price (default;
  ///    byte-identical to every pre-order-book build).
  ///  * kOrderBook — the price-mediated regime (Ramaswamy et al.): sellers
  ///    post asks into a price-time-priority book each round and buyers
  ///    cross it; the transacted price is the resting ask's, not the
  ///    pricing rule's.
  enum class MarketMode { kDirect, kOrderBook };
  MarketMode market_mode = MarketMode::kDirect;

  /// Order-book market knobs (only read when market_mode == kOrderBook).
  struct OrderBookConfig {
    /// How sellers price their asks.
    ///  * kFixedMarkup — every ask at round(base_price * (1 + ask_markup)).
    ///  * kAdaptive — per-seller tâtonnement: every reprice_rounds rounds a
    ///    seller raises its price one credit when its posted quantity
    ///    mostly sold (fill ratio >= 0.6) and cuts one credit when almost
    ///    nothing sold (<= 0.1); both thresholds are constants in
    ///    book_post_asks, not knobs. Supply and demand then walk each
    ///    market toward its clearing price.
    enum class AskPricing { kFixedMarkup, kAdaptive };
    AskPricing ask_pricing = AskPricing::kFixedMarkup;
    double ask_markup = 0.0;        ///< fixed-markup premium over base_price
    Credits base_price = 1;         ///< fixed-markup base / adaptive start
    Credits min_price = 1;          ///< adaptive floor
    Credits max_price = 16;         ///< book price-level capacity + cap
    std::size_t reprice_rounds = 8; ///< adaptive repricing cadence

    /// How buyers cross the book (per wanted chunk, over the neighbor
    /// sellers whose asks cover it):
    ///  * kBestAsk — price-time priority: cheapest ask, earliest post wins
    ///    ties.
    ///  * kFillWeighted — spread demand across price levels, weighting
    ///    each candidate ask by its remaining quantity (deep asks absorb
    ///    proportionally more of the flow).
    ///  * kLimit — best ask if it is at or under limit_price; otherwise
    ///    the buyer posts a resting limit bid and waits for the market to
    ///    come down to it.
    enum class CrossStrategy { kBestAsk, kFillWeighted, kLimit };
    CrossStrategy cross = CrossStrategy::kBestAsk;
    Credits limit_price = 2;        ///< kLimit threshold

    /// Fraction of peers that participate as ask-posting sellers (chosen
    /// by a deterministic per-id hash, so the set is stable under churn).
    /// Everyone still buys; supply scales with this — the clearing-price
    /// vs. seeder-fraction axis.
    double seller_fraction = 1.0;
  };
  OrderBookConfig book;

  /// Credit injection (the "inflation" counter-action the paper's
  /// introduction warns about): every `interval_seconds`, the system mints
  /// `credits_per_peer` fresh credits to every alive peer. Keeps poor peers
  /// liquid at the cost of growing the money supply — the ext02 bench
  /// quantifies the trade-off.
  struct InjectionPolicy {
    bool enabled = false;
    double interval_seconds = 100.0;
    Credits credits_per_peer = 1;
  };
  InjectionPolicy injection;

  econ::PricingParams pricing;
  SpendingParams spending;
  econ::TaxPolicy tax;
  ChurnConfig churn;
  HeterogeneityConfig heterogeneity;
  /// Strategic-agent populations (all zero ⇒ the honest-only market,
  /// byte-identical to every pre-strategy build).
  strategy::StrategyConfig strat;

  std::uint64_t seed = 42;
};

/// The protocol engine. Construct, call start(), then drive the Simulator.
/// It is the calendar agent for rounds, injection ticks, arrivals and
/// departures.
class StreamingProtocol : private sim::Simulator::Agent {
 public:
  StreamingProtocol(ProtocolConfig config, sim::Simulator& simulator);

  /// Detaches from the simulator. The simulator must outlive the protocol
  /// and may keep running after it: the protocol's pending events then pop
  /// as no-ops.
  ~StreamingProtocol();

  StreamingProtocol(const StreamingProtocol&) = delete;
  StreamingProtocol& operator=(const StreamingProtocol&) = delete;

  /// Build the overlay, endow peers, and schedule rounds (and churn).
  void start();

  // ---- Introspection -----------------------------------------------------
  [[nodiscard]] const ProtocolConfig& config() const { return cfg_; }
  [[nodiscard]] const CreditLedger& ledger() const { return ledger_; }
  [[nodiscard]] const Overlay& overlay() const { return overlay_; }
  [[nodiscard]] std::vector<PeerId> alive_peers() const;
  /// Alive peer ids in ascending order, O(1), no copy.
  ///
  /// LIFETIME: aliases the overlay's dense active array; invalidated by any
  /// churn event (join/leave) and by protocol destruction. Safe to hold for
  /// the duration of one event at a fixed simulation time — churn never
  /// interleaves with an executing event — but never across events.
  [[nodiscard]] std::span<const PeerId> alive_span() const {
    return overlay_.active_peers();
  }
  [[nodiscard]] std::size_t num_alive() const { return overlay_.num_active(); }
  [[nodiscard]] const econ::TaxationEngine& taxation() const { return tax_; }
  /// The live per-slot state (ownership rows included), read-only.
  [[nodiscard]] const PeerTable& peer_table() const { return peers_; }
  [[nodiscard]] TransactionTrace& trace() { return trace_; }
  [[nodiscard]] const TransactionTrace& trace() const { return trace_; }
  /// The live order book; nullptr unless market_mode == kOrderBook.
  [[nodiscard]] const market::OrderBook* order_book() const {
    return book_.get();
  }
  /// Readouts of the most recent round's book state (depth/spread at round
  /// end; clearing price and fill ratio over that round's fills). All zero
  /// outside kOrderBook mode or before the first round.
  struct BookRoundStats {
    double depth = 0.0;           ///< resting asks at round end
    double spread = 0.0;          ///< max_ask - min_ask at round end
    double clearing_price = 0.0;  ///< volume/fills of the round (0: no fill)
    double fill_ratio = 0.0;      ///< round fills / round posted quantity
  };
  [[nodiscard]] const BookRoundStats& book_round_stats() const {
    return book_stats_;
  }
  [[nodiscard]] const sim::MetricsRegistry& metrics() const {
    return metrics_;
  }

  /// The slot's behavioral strategy (kHonest everywhere when strat is off).
  [[nodiscard]] strategy::Strategy strategy_of(PeerId id) const {
    return peers_.strategy(id);
  }
  /// Per-strategy population/credit/availability readout over the alive
  /// set, plus total bonded stake. Pure readout, allocation-free.
  [[nodiscard]] strategy::Breakdown strategy_breakdown() const;

  /// Balances of alive peers (order matches alive_peers()).
  [[nodiscard]] std::vector<double> balance_snapshot() const;
  /// Lifetime spending rate (credits/sec) of alive peers.
  [[nodiscard]] std::vector<double> spend_rate_snapshot() const;
  /// Start a trailing measurement window for windowed_spend_rates().
  void begin_rate_window();
  /// Spending rates (credits/sec) of alive peers since begin_rate_window();
  /// the paper's Fig. 1 "credit spending rate" readout. Requires a window
  /// opened at a strictly earlier simulation time.
  [[nodiscard]] std::vector<double> windowed_spend_rates() const;
  /// Lifetime download rate (chunks/sec) of alive peers.
  [[nodiscard]] std::vector<double> download_rate_snapshot() const;

  // Scratch-buffer flavors of the snapshots above: fill a caller-owned
  // vector (cleared first) instead of returning a fresh one, so periodic
  // sampling allocates nothing once the buffer has warmed up. Values and
  // order are identical to the returning flavors.
  void balance_snapshot(std::vector<double>& out) const;
  void spend_rate_snapshot(std::vector<double>& out) const;
  void windowed_spend_rates(std::vector<double>& out) const;
  void download_rate_snapshot(std::vector<double>& out) const;
  /// Current chunk at the head of the stream.
  [[nodiscard]] ChunkId stream_head() const;
  /// Fraction of the window held, averaged over alive peers (playback
  /// continuity proxy).
  [[nodiscard]] double mean_buffer_fill() const;

  /// Rounds executed so far.
  [[nodiscard]] std::uint64_t rounds_run() const { return rounds_; }

  /// Cumulative wall-clock seconds spent inside the purchase phase (all
  /// peers, all rounds) — the hot-path telemetry the perf benches report.
  [[nodiscard]] double purchase_phase_seconds() const {
    return purchase_phase_seconds_;
  }
  /// Cumulative wall-clock seconds spent seeding fresh chunks.
  [[nodiscard]] double seed_phase_seconds() const {
    return seed_phase_seconds_;
  }
  /// Cumulative wall-clock seconds spent in taxation redistribution.
  [[nodiscard]] double tax_phase_seconds() const {
    return tax_phase_seconds_;
  }

  /// Observer invoked at the end of every round — after that round's
  /// purchases and taxation settled — with the 1-based round index and the
  /// round's simulation time. Must be read-only: the hook sees the live
  /// protocol and must not mutate it or consume RNG (the series sampler is
  /// the intended client). One hook; setting replaces the previous one.
  void set_round_hook(std::function<void(std::uint64_t, double)> hook) {
    round_hook_ = std::move(hook);
  }

 private:
  /// The protocol's calendar kinds; a departure's arg is its peer. Rounds
  /// and injection ticks reschedule themselves after their body runs.
  enum Event : std::uint8_t { kRound, kInjection, kArrival, kDeparture };
  void on_event(std::uint8_t kind, std::uint32_t arg, double t) override;

  void run_round(double now);
  /// The stream head at simulation time `t`: the chunks emitted by then
  /// plus one window. Throws util::PreconditionError when
  /// t * stream_rate >= 2^63 chunks, where a ChunkId could not hold it.
  [[nodiscard]] ChunkId head_at(double t) const;
  void seed_new_chunks(double now, ChunkId head);
  void peer_purchase_phase(PeerId buyer_id, double now);
  /// The purchase phase's seller test: a whole chunk of upload budget
  /// left. In an order-book market the budget is the resting ask's
  /// quantity (book_post_asks), so it is a resting ask too.
  [[nodiscard]] bool sells(PeerId id) const { return upload_budget_[id] != 0; }
  /// One buyer's purchases over this phase's reachable chunks, newest
  /// first, until `purchase_cap` purchases or the budget is spent: choose,
  /// price (the resting ask's price in an order-book market, the pricing
  /// rule's otherwise), settle. A best-ask walk also ends once the budget
  /// is under the book's floor (ask_floor_). Words = candidates_.width(),
  /// chosen once per buyer.
  template <std::size_t Words>
  void buy_missing(PeerId buyer_id, std::size_t purchase_cap, double budget,
                   double now);
  /// How choose_seller picks among a wanted chunk's candidates, fixed at
  /// construction from market_mode, seller_choice and book.cross:
  ///  * kUniform — uniform among them: the paper's availability-driven
  ///    routing (seller_choice kAvailabilityUniform, direct market).
  ///  * kWeighted — a draw weighted by the buffer fill + 1 (seller_choice
  ///    kFillWeighted) or, in an order-book market, by the ask's remaining
  ///    quantity (book.cross kFillWeighted).
  ///  * kCheapest — the least (price, seq) in walk order, strict <: the
  ///    posted price with seq 0, so ties go to the earliest neighbor
  ///    (seller_choice kCheapestAsk), or the ask's (price, seq), price-time
  ///    priority (book.cross kBestAsk and kLimit; buy_missing rests a bid
  ///    when a kLimit buyer's cheapest ask is above book.limit_price).
  enum class SellerRule : std::uint8_t { kUniform, kWeighted, kCheapest };
  /// Choose a seller for reachable chunk `chunk` among this phase's
  /// candidates by seller_rule_; false when remove() took them all.
  template <std::size_t Words>
  bool choose_seller(ChunkId chunk, PeerId& seller);
  /// Order-book round opening: every participating seller posts (or
  /// replaces) its ask — quantity from this round's upload budget, price
  /// from the ask-pricing policy (adaptive repricing on its cadence). A
  /// peer that posts no ask gets no budget, so the seller test needs no
  /// look at the book.
  void book_post_asks();
  /// Whether `id` participates as an ask-posting seller (deterministic
  /// per-id hash against book.seller_fraction — stable under churn).
  [[nodiscard]] bool is_book_seller(PeerId id) const;
  /// Availability-uniform choice over `num_candidates` in closed form.
  /// Rng::discrete over k all-ones weights draws one uniform() and returns
  /// the first i with u*k - (i+1) <= 0, i.e. ceil(u*k) - 1 (0 when
  /// u*k <= 1) — computed here with the identical RNG draw and identical
  /// pick, so the market stays bit-for-bit equal to the discrete()
  /// formulation without materializing weights or walking the cumsum.
  [[nodiscard]] std::size_t uniform_pick(std::size_t num_candidates);
  void schedule_next_arrival();
  /// Draw a lifespan for the peer just activated in `id` and put its
  /// departure on the calendar.
  void schedule_departure(PeerId id, double now);
  void handle_arrival(double now);
  void handle_departure(PeerId id);
  /// (Re)activate a slot; returns the credits minted into it (the
  /// rejoin-mint policy decides how much a recycled slot still gets).
  Credits activate_peer(PeerId id, double now);
  /// Credits the rejoin-mint policy grants a slot's `activation`-th
  /// activation (1-based; activation 1 always gets the full endowment).
  [[nodiscard]] Credits rejoin_grant(std::uint32_t activation) const;
  // Strategy-layer round phases (each a no-op unless the corresponding
  // population is configured; none consumes RNG when off).
  void strategy_zero_free_rider_budgets();
  void strategy_collusion_round();
  void strategy_whitewash_round(double now);
  void strategy_revalidate_stakes();

  ProtocolConfig cfg_;
  sim::Simulator& sim_;
  sim::Simulator::AgentId agent_ = 0;  ///< valid once started_
  util::Rng rng_;
  CreditLedger ledger_;
  Overlay overlay_;
  PeerTable peers_;  ///< SoA per-peer state, ownership rows included
  SellerRule seller_rule_ = SellerRule::kUniform;
  econ::TaxationEngine tax_;
  TransactionTrace trace_;
  sim::MetricsRegistry metrics_;

  // Order-book market state (allocated only in kOrderBook mode, so kDirect
  // markets carry zero book overhead).
  std::unique_ptr<market::OrderBook> book_;
  std::vector<econ::Credits> book_price_;   ///< per-seller adaptive price
  std::vector<std::uint32_t> book_posted_;  ///< qty posted since reprice
  std::vector<std::uint32_t> book_sold_;    ///< qty sold since reprice
  BookRoundStats book_stats_;
  // Round-start counter snapshots for the per-round stats deltas.
  std::uint64_t book_round_fills_base_ = 0;
  std::uint64_t book_round_volume_base_ = 0;
  std::uint64_t book_round_posted_base_ = 0;

  /// The book's floor (OrderBook::best_price) during a purchase phase:
  /// read at round opening, and again from its last value after each
  /// drain, since no ask is posted until the next round.
  econ::Credits ask_floor_ = 0;

  // Per-round scratch (kept across rounds to avoid reallocation).
  /// Whole chunks a peer may still sell this round: ⌊capacity ×
  /// round_seconds⌋, saturating at UINT32_MAX; in an order-book market,
  /// the resting ask's quantity. For 1 <= b < 2^53, b - k >= 1 exactly
  /// when ⌊b⌋ - k >= 1, so a whole count decides every sale the
  /// fractional budget would.
  std::vector<std::uint32_t> upload_budget_;
  std::vector<PeerId> round_order_;
  std::vector<double> seller_weights_;  ///< kWeighted draw, in walk order
  /// The current buyer phase's seller candidates (rebuilt per buyer).
  PurchaseCandidates candidates_;
  /// Strategy-phase scratch (reserved to max_peers at construction when the
  /// corresponding population is configured, so the round loop stays
  /// allocation-free with strategies live).
  std::vector<PeerId> colluder_scratch_;
  std::vector<PeerId> staked_scratch_;
  /// Cached cfg_.strat.enabled(): the single branch every strategy hook
  /// sits behind in the default (all-honest) path.
  bool strat_enabled_ = false;

  // Hot-loop counter cells cached once (stable for the registry lifetime)
  // so per-event accounting skips the by-name map lookup — and the
  // std::string construction that goes with it, which heap-allocates for
  // names beyond the small-string buffer.
  //
  // The trade count: market.transactions counts chunks delivered by a
  // purchase (direct or order book; price-0 chunks included) and
  // market.volume sums their prices. Collusion washes are not trades
  // (strat.collusion_*), nor is free seeding (PeerTable::chunks_seeded).
  std::uint64_t* tx_count_ = nullptr;
  std::uint64_t* tx_volume_ = nullptr;
  std::uint64_t* liquidity_failures_ = nullptr;
  std::uint64_t* churn_arrivals_ = nullptr;
  std::uint64_t* churn_arrivals_dropped_ = nullptr;
  std::uint64_t* churn_departures_ = nullptr;
  // Purchase-path dispatch counters, indexed by PurchaseCandidates::width():
  // how many buyer phases resolved through each candidate-mask width
  // (purchase.phase_generic / phase_one_word / phase_two_word).
  std::array<std::uint64_t*, 3> phase_width_ct_{};
  // Best-ask walks the book's floor ended (purchase.best_ask_stops).
  std::uint64_t* best_ask_stops_ = nullptr;
  // Strategy-layer accounting (incremented only when strat is enabled).
  std::uint64_t* whitewash_resets_ = nullptr;
  std::uint64_t* whitewash_minted_ = nullptr;
  std::uint64_t* whitewash_burned_ = nullptr;
  std::uint64_t* collusion_volume_ = nullptr;
  std::uint64_t* stake_locked_ = nullptr;
  std::uint64_t* stake_slashed_ = nullptr;
  std::uint64_t* stake_topups_ = nullptr;
  // Order-book accounting (incremented only in kOrderBook mode).
  std::uint64_t* book_asks_posted_ = nullptr;
  std::uint64_t* book_posted_qty_ = nullptr;
  std::uint64_t* book_fills_ = nullptr;
  std::uint64_t* book_volume_ = nullptr;
  std::uint64_t* book_asks_expired_ = nullptr;
  std::uint64_t* book_bids_posted_ = nullptr;
  std::uint64_t* book_bids_matched_ = nullptr;

  // Histogram cells (stable for the registry lifetime, allocation-free
  // add): candidate-set sizes per buyer phase (both modes) and calendar
  // depth sampled each round.
  util::Log2Histogram* candidates_hist_ = nullptr;
  util::Log2Histogram* queue_depth_hist_ = nullptr;

  // Trailing spend-rate window (begin_rate_window / windowed_spend_rates).
  std::vector<std::uint64_t> spent_marker_;
  double marker_time_ = -1.0;

  std::uint64_t rounds_ = 0;
  double purchase_phase_seconds_ = 0.0;
  double seed_phase_seconds_ = 0.0;
  double tax_phase_seconds_ = 0.0;
  std::function<void(std::uint64_t, double)> round_hook_;
  bool started_ = false;
};

}  // namespace creditflow::p2p
