#include "scenario/params.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <type_traits>

#include "util/math.hpp"

namespace creditflow::scenario {

namespace {

using Kind = ParamDesc::Kind;

// The one conversion between a table value and a field, chosen by the
// field's type: a bool is 0/1, an enum its code, anything else a numeric
// cast. ParamDesc::check has already vetted the value for the row's kind.
template <typename T>
double to_double(T field) {
  if constexpr (std::is_enum_v<T>) {
    return static_cast<double>(static_cast<std::underlying_type_t<T>>(field));
  } else {
    return static_cast<double>(field);
  }
}

template <typename T>
T from_double(double v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v != 0.0;
  } else if constexpr (std::is_enum_v<T>) {
    return static_cast<T>(static_cast<std::underlying_type_t<T>>(v));
  } else {
    return static_cast<T>(v);
  }
}

// A row's reader and writer, both bound to the spec field at `path`.
#define CF_FIELD(path)                                        \
  [](const ScenarioSpec& s) { return to_double(s.path); },    \
      [](ScenarioSpec& s, double v) {                         \
        s.path = from_double<decltype(s.path)>(v);            \
      }

const std::vector<ParamDesc>& table() {
  static const std::vector<ParamDesc> kTable = {
      // Fraction of the horizon after which the rate window opens.
      {"warmup", CF_FIELD(warmup_fraction), Kind::kFraction},

      // Population. `peers` keeps max_peers consistent (raised, never
      // lowered) so that a bare "peers=800" is valid on its own; an explicit
      // `max_peers` later in the table order wins.
      {"peers",
       [](const ScenarioSpec& s) {
         return to_double(s.config.protocol.initial_peers);
       },
       [](ScenarioSpec& s, double v) {
         auto& protocol = s.config.protocol;
         protocol.initial_peers = from_double<std::size_t>(v);
         protocol.max_peers =
             std::max(protocol.max_peers, protocol.initial_peers);
       },
       Kind::kCount},
      // Slot capacity (churn headroom).
      {"max_peers", CF_FIELD(config.protocol.max_peers), Kind::kCount},
      // The endowment c of each peer.
      {"credits", CF_FIELD(config.protocol.initial_credits), Kind::kCount},
      // Base RNG seed.
      {"seed", CF_FIELD(config.protocol.seed), Kind::kSeed},

      // Run shape: simulated seconds, metrics cadence in seconds, the
      // pairwise transaction trace, a ledger-conservation assert at every
      // snapshot.
      {"horizon", CF_FIELD(config.horizon)},
      {"snapshot_interval", CF_FIELD(config.snapshot_interval)},
      {"trace", CF_FIELD(config.enable_trace), Kind::kBool},
      {"audit", CF_FIELD(config.audit_every_snapshot), Kind::kBool},

      // Streaming protocol.
      {"round_seconds", CF_FIELD(config.protocol.round_seconds)},
      // Chunks emitted per second.
      {"stream_rate", CF_FIELD(config.protocol.stream_rate)},
      // Playback window size.
      {"window_chunks", CF_FIELD(config.protocol.window_chunks),
       Kind::kCount},
      // Free copies of each fresh chunk.
      {"seed_fanout", CF_FIELD(config.protocol.seed_fanout), Kind::kCount},
      // Target mean degree of the bootstrap overlay.
      {"overlay_degree", CF_FIELD(config.protocol.overlay_mean_degree)},
      // Mean chunks/sec a peer can serve.
      {"upload_capacity", CF_FIELD(config.protocol.upload_capacity)},
      // Mean spending rate mu^s in credits/sec.
      {"base_spend_rate", CF_FIELD(config.protocol.base_spend_rate)},
      // Per peer per round.
      {"max_purchase_attempts",
       CF_FIELD(config.protocol.max_purchase_attempts), Kind::kCount},
      // Initial window fill fraction.
      {"warm_start_fill", CF_FIELD(config.protocol.warm_start_fill),
       Kind::kFraction},
      // Liquidity-management reserve.
      {"reserve_credits", CF_FIELD(config.protocol.reserve_credits)},
      // The source pushes to the emptiest buffers.
      {"deficit_seeding", CF_FIELD(config.protocol.deficit_seeding),
       Kind::kBool},
      // 0=availability-uniform, 1=fill-weighted, 2=cheapest-ask.
      {"seller_choice", CF_FIELD(config.protocol.seller_choice), Kind::kEnum,
       2.0},

      // Heterogeneity (the symmetric/asymmetric utilization lever):
      // lognormal CVs of base spending rates and of upload capacities.
      {"spend_cv", CF_FIELD(config.protocol.heterogeneity.spend_rate_cv)},
      {"upload_cv",
       CF_FIELD(config.protocol.heterogeneity.upload_capacity_cv)},

      // Pricing. 0=uniform, 1=poisson, 2=per-seller, 3=linear.
      {"pricing.kind", CF_FIELD(config.protocol.pricing.kind), Kind::kEnum,
       3.0},
      // Flat credits per chunk.
      {"pricing.uniform_price", CF_FIELD(config.protocol.pricing.uniform_price),
       Kind::kCount},
      {"pricing.poisson_mean", CF_FIELD(config.protocol.pricing.poisson_mean)},
      // Price floor for poisson draws.
      {"pricing.poisson_min", CF_FIELD(config.protocol.pricing.poisson_min),
       Kind::kCount},
      // Per-seller price range.
      {"pricing.per_seller_lo",
       CF_FIELD(config.protocol.pricing.per_seller_lo), Kind::kCount},
      {"pricing.per_seller_hi",
       CF_FIELD(config.protocol.pricing.per_seller_hi), Kind::kCount},

      // Spending policy (Sec. VI-D): dynamic spending adjustment and its
      // wealth threshold m.
      {"spending.dynamic", CF_FIELD(config.protocol.spending.dynamic),
       Kind::kBool},
      {"spending.threshold",
       CF_FIELD(config.protocol.spending.dynamic_threshold)},

      // Taxation (Sec. VI-C): the proportion of income collected above a
      // wealth threshold.
      {"tax.enabled", CF_FIELD(config.protocol.tax.enabled), Kind::kBool},
      {"tax.rate", CF_FIELD(config.protocol.tax.rate), Kind::kFraction},
      {"tax.threshold", CF_FIELD(config.protocol.tax.threshold)},

      // Churn (Sec. VI-E, the open market): Poisson arrivals per second,
      // mean exponential lifespan in seconds.
      {"churn.enabled", CF_FIELD(config.protocol.churn.enabled), Kind::kBool},
      {"churn.arrival_rate", CF_FIELD(config.protocol.churn.arrival_rate)},
      {"churn.mean_lifespan", CF_FIELD(config.protocol.churn.mean_lifespan)},
      // Preferential-attachment links per join.
      {"churn.join_links", CF_FIELD(config.protocol.churn.join_links),
       Kind::kCount},
      // Endowment on slot re-activation: 0=full, 1=none, 2=decayed.
      {"churn.rejoin_mint", CF_FIELD(config.protocol.churn.rejoin_mint),
       Kind::kEnum, 2.0},
      // Per-reactivation decay for rejoin_mint=2.
      {"churn.rejoin_mint_decay",
       CF_FIELD(config.protocol.churn.rejoin_mint_decay), Kind::kFraction},

      // Credit injection (the inflation counter-action): credits minted per
      // peer every `interval` seconds.
      {"inject.enabled", CF_FIELD(config.protocol.injection.enabled),
       Kind::kBool},
      {"inject.interval", CF_FIELD(config.protocol.injection.interval_seconds)},
      {"inject.amount", CF_FIELD(config.protocol.injection.credits_per_peer),
       Kind::kCount},

      // Order-book market (PR 8). market_mode=1 routes purchases through
      // the src/market/ book; 0 keeps the paper's direct seller pick.
      {"market_mode", CF_FIELD(config.protocol.market_mode), Kind::kEnum,
       1.0},
      // 0=fixed markup, 1=adaptive (tatonnement).
      {"book.pricing", CF_FIELD(config.protocol.book.ask_pricing), Kind::kEnum,
       1.0},
      // Fixed-markup fraction over base_price.
      {"book.markup", CF_FIELD(config.protocol.book.ask_markup)},
      // Initial/reference ask price in credits.
      {"book.base_price", CF_FIELD(config.protocol.book.base_price),
       Kind::kCount},
      {"book.min_price", CF_FIELD(config.protocol.book.min_price),
       Kind::kCount},
      // Ask price ceiling (book level count).
      {"book.max_price", CF_FIELD(config.protocol.book.max_price),
       Kind::kCount},
      // Adaptive repricing cadence in rounds.
      {"book.reprice_rounds", CF_FIELD(config.protocol.book.reprice_rounds),
       Kind::kCount},
      // 0=best-ask, 1=fill-weighted, 2=limit.
      {"book.cross", CF_FIELD(config.protocol.book.cross), Kind::kEnum, 2.0},
      // Resting-bid limit for book.cross=2.
      {"book.limit_price", CF_FIELD(config.protocol.book.limit_price),
       Kind::kCount},
      // Fraction of peers that post asks.
      {"book.seller_fraction", CF_FIELD(config.protocol.book.seller_fraction),
       Kind::kFraction},

      // Strategy layer (adversarial peer populations). All fractions at 0
      // keeps the layer disabled and every run byte-identical to default.
      // Free riders never upload or sell.
      {"strat.free_riders", CF_FIELD(config.protocol.strat.free_rider_fraction),
       Kind::kFraction},
      // Whitewashers cycle identity when their balance drops below the
      // threshold.
      {"strat.whitewashers",
       CF_FIELD(config.protocol.strat.whitewash_fraction), Kind::kFraction},
      {"strat.whitewash_threshold",
       CF_FIELD(config.protocol.strat.whitewash_threshold)},
      // Colluders run credit-wash rings of `collude_clique` peers (>= 2),
      // washing `collude_amount` credits per ring edge per round.
      {"strat.colluders", CF_FIELD(config.protocol.strat.collude_fraction),
       Kind::kFraction},
      {"strat.collude_clique", CF_FIELD(config.protocol.strat.collude_clique),
       Kind::kCount},
      {"strat.collude_amount", CF_FIELD(config.protocol.strat.collude_amount),
       Kind::kCount},
      // Staked seeders bond `stake_amount` credits to advertise, forfeit
      // the `stake_slash` fraction of it on departure, and top it up every
      // `revalidate_rounds` rounds (>= 1).
      {"strat.staked", CF_FIELD(config.protocol.strat.staked_fraction),
       Kind::kFraction},
      {"strat.stake_amount", CF_FIELD(config.protocol.strat.stake_amount),
       Kind::kCount},
      {"strat.stake_slash", CF_FIELD(config.protocol.strat.stake_slash),
       Kind::kFraction},
      {"strat.revalidate_rounds",
       CF_FIELD(config.protocol.strat.revalidate_rounds), Kind::kCount},
  };
  return kTable;
}

#undef CF_FIELD

/// Aliases accepted on input (the paper's own symbols) but never emitted.
std::string_view resolve_alias(std::string_view key) {
  if (key == "c") return "credits";
  if (key == "n") return "peers";
  return key;
}

}  // namespace

std::string ParamDesc::check(double value) const {
  const bool integral = value == std::floor(value);
  std::string rule;  // what a well-formed value is; empty when it is one
  if (!std::isfinite(value)) {
    rule = "value must be finite";
  } else {
    switch (kind) {
      case Kind::kReal:
        break;
      case Kind::kCount:
        if (value < 0.0 || !integral || value > kMaxCount) {
          rule = "count must be a non-negative integer";
        }
        break;
      case Kind::kSeed:
        if (value < 0.0 || !integral || value >= 0x1p64) {
          rule = "seed must be an integer in [0, 2^64)";
        }
        break;
      case Kind::kFraction:
        if (value < 0.0 || value > 1.0) rule = "fraction must be in [0, 1]";
        break;
      case Kind::kBool:
        if (value != 0.0 && value != 1.0) rule = "flag must be 0 or 1";
        break;
      case Kind::kEnum:
        if (value < 0.0 || !integral || value > enum_max) {
          rule = "code must be an integer in [0, " +
                 std::to_string(static_cast<int>(enum_max)) + "]";
        }
        break;
    }
  }
  if (rule.empty()) return {};
  return std::string(key) + ": " + rule + ", got " +
         util::format_double(value);
}

const std::vector<ParamDesc>& param_table() { return table(); }

const ParamDesc* find_param(std::string_view key) {
  const auto resolved = resolve_alias(key);
  for (const auto& desc : table()) {
    if (desc.key == resolved) return &desc;
  }
  return nullptr;
}

}  // namespace creditflow::scenario
