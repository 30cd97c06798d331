#include "scenario/params.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "util/math.hpp"

namespace creditflow::scenario {

namespace {

// Shorthand for table entries: most parameters are a plain field read/write
// with a numeric cast.
template <typename T>
double as_double(T v) {
  return static_cast<double>(v);
}

constexpr double kTrue = 1.0;

double bool_value(bool b) { return b ? kTrue : 0.0; }

using Kind = ParamDesc::Kind;

/// Counts route through std::size_t / uint64_t casts; anything above this
/// is a typo, not a population size, and the cast itself would be UB-ish
/// territory on a double this large anyway.
constexpr double kMaxCount = 1e15;

const std::vector<ParamDesc>& table() {
  using core::MarketConfig;
  static const std::vector<ParamDesc> kTable = {
      // Population. `peers` keeps max_peers consistent (raised, never
      // lowered) so that a bare "peers=800" is valid on its own; an explicit
      // `max_peers` later in the table order wins.
      {"peers", "initial population",
       [](const MarketConfig& c) { return as_double(c.protocol.initial_peers); },
       [](MarketConfig& c, double v) {
         c.protocol.initial_peers = static_cast<std::size_t>(v);
         c.protocol.max_peers =
             std::max(c.protocol.max_peers, c.protocol.initial_peers);
       },
       Kind::kCount},
      {"max_peers", "slot capacity (churn headroom)",
       [](const MarketConfig& c) { return as_double(c.protocol.max_peers); },
       [](MarketConfig& c, double v) {
         c.protocol.max_peers = static_cast<std::size_t>(v);
       },
       Kind::kCount},
      {"credits", "initial endowment c per peer",
       [](const MarketConfig& c) {
         return as_double(c.protocol.initial_credits);
       },
       [](MarketConfig& c, double v) {
         c.protocol.initial_credits = static_cast<p2p::Credits>(v);
       },
       Kind::kCount},
      {"seed", "base RNG seed",
       [](const MarketConfig& c) { return as_double(c.protocol.seed); },
       [](MarketConfig& c, double v) {
         c.protocol.seed = static_cast<std::uint64_t>(v);
       },
       Kind::kSeed},

      // Run shape.
      {"horizon", "simulated seconds",
       [](const MarketConfig& c) { return c.horizon; },
       [](MarketConfig& c, double v) { c.horizon = v; }},
      {"snapshot_interval", "metrics cadence in seconds",
       [](const MarketConfig& c) { return c.snapshot_interval; },
       [](MarketConfig& c, double v) { c.snapshot_interval = v; }},
      {"trace", "record the pairwise transaction trace (0/1)",
       [](const MarketConfig& c) { return bool_value(c.enable_trace); },
       [](MarketConfig& c, double v) { c.enable_trace = v != 0.0; },
       Kind::kBool},
      {"audit", "assert ledger conservation every snapshot (0/1)",
       [](const MarketConfig& c) { return bool_value(c.audit_every_snapshot); },
       [](MarketConfig& c, double v) { c.audit_every_snapshot = v != 0.0; },
       Kind::kBool},

      // Streaming protocol.
      {"round_seconds", "scheduling round length",
       [](const MarketConfig& c) { return c.protocol.round_seconds; },
       [](MarketConfig& c, double v) { c.protocol.round_seconds = v; }},
      {"stream_rate", "chunks emitted per second",
       [](const MarketConfig& c) { return c.protocol.stream_rate; },
       [](MarketConfig& c, double v) { c.protocol.stream_rate = v; }},
      {"window_chunks", "playback window size",
       [](const MarketConfig& c) {
         return as_double(c.protocol.window_chunks);
       },
       [](MarketConfig& c, double v) {
         c.protocol.window_chunks = static_cast<std::size_t>(v);
       },
       Kind::kCount},
      {"seed_fanout", "free copies of each fresh chunk",
       [](const MarketConfig& c) { return as_double(c.protocol.seed_fanout); },
       [](MarketConfig& c, double v) {
         c.protocol.seed_fanout = static_cast<std::size_t>(v);
       },
       Kind::kCount},
      {"overlay_degree", "target mean degree of the bootstrap overlay",
       [](const MarketConfig& c) { return c.protocol.overlay_mean_degree; },
       [](MarketConfig& c, double v) { c.protocol.overlay_mean_degree = v; }},
      {"upload_capacity", "mean chunks/sec a peer can serve",
       [](const MarketConfig& c) { return c.protocol.upload_capacity; },
       [](MarketConfig& c, double v) { c.protocol.upload_capacity = v; }},
      {"base_spend_rate", "mean spending rate mu^s in credits/sec",
       [](const MarketConfig& c) { return c.protocol.base_spend_rate; },
       [](MarketConfig& c, double v) { c.protocol.base_spend_rate = v; }},
      {"max_purchase_attempts", "per peer per round",
       [](const MarketConfig& c) {
         return as_double(c.protocol.max_purchase_attempts);
       },
       [](MarketConfig& c, double v) {
         c.protocol.max_purchase_attempts = static_cast<std::size_t>(v);
       },
       Kind::kCount},
      {"warm_start_fill", "initial window fill fraction",
       [](const MarketConfig& c) { return c.protocol.warm_start_fill; },
       [](MarketConfig& c, double v) { c.protocol.warm_start_fill = v; },
       Kind::kFraction},
      {"reserve_credits", "liquidity-management reserve",
       [](const MarketConfig& c) { return c.protocol.reserve_credits; },
       [](MarketConfig& c, double v) { c.protocol.reserve_credits = v; }},
      {"deficit_seeding", "source pushes to emptiest buffers (0/1)",
       [](const MarketConfig& c) {
         return bool_value(c.protocol.deficit_seeding);
       },
       [](MarketConfig& c, double v) {
         c.protocol.deficit_seeding = v != 0.0;
       },
       Kind::kBool},
      {"seller_choice",
       "0=availability-uniform, 1=fill-weighted, 2=cheapest-ask",
       [](const MarketConfig& c) {
         return as_double(static_cast<int>(c.protocol.seller_choice));
       },
       [](MarketConfig& c, double v) {
         c.protocol.seller_choice =
             static_cast<p2p::ProtocolConfig::SellerChoice>(
                 static_cast<int>(v));
       },
       Kind::kEnum, 2.0},

      // Heterogeneity (the symmetric/asymmetric utilization lever).
      {"spend_cv", "lognormal CV of base spending rates",
       [](const MarketConfig& c) {
         return c.protocol.heterogeneity.spend_rate_cv;
       },
       [](MarketConfig& c, double v) {
         c.protocol.heterogeneity.spend_rate_cv = v;
       }},
      {"upload_cv", "lognormal CV of upload capacities",
       [](const MarketConfig& c) {
         return c.protocol.heterogeneity.upload_capacity_cv;
       },
       [](MarketConfig& c, double v) {
         c.protocol.heterogeneity.upload_capacity_cv = v;
       }},

      // Pricing.
      {"pricing.kind", "0=uniform, 1=poisson, 2=per-seller, 3=linear",
       [](const MarketConfig& c) {
         return as_double(static_cast<int>(c.protocol.pricing.kind));
       },
       [](MarketConfig& c, double v) {
         c.protocol.pricing.kind =
             static_cast<econ::PricingKind>(static_cast<int>(v));
       },
       Kind::kEnum, 3.0},
      {"pricing.uniform_price", "flat credits per chunk",
       [](const MarketConfig& c) {
         return as_double(c.protocol.pricing.uniform_price);
       },
       [](MarketConfig& c, double v) {
         c.protocol.pricing.uniform_price = static_cast<econ::Credits>(v);
       },
       Kind::kCount},
      {"pricing.poisson_mean", "mean of poisson prices",
       [](const MarketConfig& c) { return c.protocol.pricing.poisson_mean; },
       [](MarketConfig& c, double v) {
         c.protocol.pricing.poisson_mean = v;
       }},
      {"pricing.poisson_min", "price floor for poisson draws",
       [](const MarketConfig& c) {
         return as_double(c.protocol.pricing.poisson_min);
       },
       [](MarketConfig& c, double v) {
         c.protocol.pricing.poisson_min = static_cast<econ::Credits>(v);
       },
       Kind::kCount},
      {"pricing.per_seller_lo", "per-seller price range low",
       [](const MarketConfig& c) {
         return as_double(c.protocol.pricing.per_seller_lo);
       },
       [](MarketConfig& c, double v) {
         c.protocol.pricing.per_seller_lo = static_cast<econ::Credits>(v);
       },
       Kind::kCount},
      {"pricing.per_seller_hi", "per-seller price range high",
       [](const MarketConfig& c) {
         return as_double(c.protocol.pricing.per_seller_hi);
       },
       [](MarketConfig& c, double v) {
         c.protocol.pricing.per_seller_hi = static_cast<econ::Credits>(v);
       },
       Kind::kCount},

      // Spending policy (Sec. VI-D).
      {"spending.dynamic", "dynamic spending adjustment (0/1)",
       [](const MarketConfig& c) {
         return bool_value(c.protocol.spending.dynamic);
       },
       [](MarketConfig& c, double v) {
         c.protocol.spending.dynamic = v != 0.0;
       },
       Kind::kBool},
      {"spending.threshold", "dynamic-spending wealth threshold m",
       [](const MarketConfig& c) {
         return c.protocol.spending.dynamic_threshold;
       },
       [](MarketConfig& c, double v) {
         c.protocol.spending.dynamic_threshold = v;
       }},

      // Taxation (Sec. VI-C).
      {"tax.enabled", "income taxation (0/1)",
       [](const MarketConfig& c) { return bool_value(c.protocol.tax.enabled); },
       [](MarketConfig& c, double v) { c.protocol.tax.enabled = v != 0.0; },
       Kind::kBool},
      {"tax.rate", "proportion of income collected",
       [](const MarketConfig& c) { return c.protocol.tax.rate; },
       [](MarketConfig& c, double v) { c.protocol.tax.rate = v; },
       Kind::kFraction},
      {"tax.threshold", "wealth level above which income is taxed",
       [](const MarketConfig& c) { return c.protocol.tax.threshold; },
       [](MarketConfig& c, double v) { c.protocol.tax.threshold = v; }},

      // Churn (Sec. VI-E, the open market).
      {"churn.enabled", "peer churn (0/1)",
       [](const MarketConfig& c) {
         return bool_value(c.protocol.churn.enabled);
       },
       [](MarketConfig& c, double v) { c.protocol.churn.enabled = v != 0.0; },
       Kind::kBool},
      {"churn.arrival_rate", "Poisson arrivals per second",
       [](const MarketConfig& c) { return c.protocol.churn.arrival_rate; },
       [](MarketConfig& c, double v) { c.protocol.churn.arrival_rate = v; }},
      {"churn.mean_lifespan", "mean exponential lifespan in seconds",
       [](const MarketConfig& c) { return c.protocol.churn.mean_lifespan; },
       [](MarketConfig& c, double v) { c.protocol.churn.mean_lifespan = v; }},
      {"churn.join_links", "preferential-attachment links per join",
       [](const MarketConfig& c) {
         return as_double(c.protocol.churn.join_links);
       },
       [](MarketConfig& c, double v) {
         c.protocol.churn.join_links = static_cast<std::size_t>(v);
       },
       Kind::kCount},
      {"churn.rejoin_mint",
       "endowment on slot re-activation: 0=full, 1=none, 2=decayed",
       [](const MarketConfig& c) {
         return as_double(static_cast<int>(c.protocol.churn.rejoin_mint));
       },
       [](MarketConfig& c, double v) {
         c.protocol.churn.rejoin_mint =
             static_cast<p2p::ChurnConfig::RejoinMint>(static_cast<int>(v));
       },
       Kind::kEnum, 2.0},
      {"churn.rejoin_mint_decay", "per-reactivation decay for rejoin_mint=2",
       [](const MarketConfig& c) {
         return c.protocol.churn.rejoin_mint_decay;
       },
       [](MarketConfig& c, double v) {
         c.protocol.churn.rejoin_mint_decay = v;
       },
       Kind::kFraction},

      // Credit injection (the inflation counter-action).
      {"inject.enabled", "periodic credit minting (0/1)",
       [](const MarketConfig& c) {
         return bool_value(c.protocol.injection.enabled);
       },
       [](MarketConfig& c, double v) {
         c.protocol.injection.enabled = v != 0.0;
       },
       Kind::kBool},
      {"inject.interval", "seconds between minting rounds",
       [](const MarketConfig& c) {
         return c.protocol.injection.interval_seconds;
       },
       [](MarketConfig& c, double v) {
         c.protocol.injection.interval_seconds = v;
       }},
      {"inject.amount", "credits minted per peer per round",
       [](const MarketConfig& c) {
         return as_double(c.protocol.injection.credits_per_peer);
       },
       [](MarketConfig& c, double v) {
         c.protocol.injection.credits_per_peer =
             static_cast<p2p::Credits>(v);
       },
       Kind::kCount},

      // Order-book market (PR 8). market_mode=1 routes purchases through
      // the src/market/ book; 0 keeps the paper's direct seller pick.
      {"market_mode", "0=direct seller pick, 1=order book",
       [](const MarketConfig& c) {
         return as_double(static_cast<int>(c.protocol.market_mode));
       },
       [](MarketConfig& c, double v) {
         c.protocol.market_mode =
             static_cast<p2p::ProtocolConfig::MarketMode>(
                 static_cast<int>(v));
       },
       Kind::kEnum, 1.0},
      {"book.pricing", "0=fixed markup, 1=adaptive (tatonnement)",
       [](const MarketConfig& c) {
         return as_double(static_cast<int>(c.protocol.book.ask_pricing));
       },
       [](MarketConfig& c, double v) {
         c.protocol.book.ask_pricing =
             static_cast<p2p::ProtocolConfig::OrderBookConfig::AskPricing>(
                 static_cast<int>(v));
       },
       Kind::kEnum, 1.0},
      {"book.markup", "fixed-markup fraction over base_price",
       [](const MarketConfig& c) { return c.protocol.book.ask_markup; },
       [](MarketConfig& c, double v) { c.protocol.book.ask_markup = v; }},
      {"book.base_price", "initial/reference ask price in credits",
       [](const MarketConfig& c) {
         return as_double(c.protocol.book.base_price);
       },
       [](MarketConfig& c, double v) {
         c.protocol.book.base_price = static_cast<p2p::Credits>(v);
       },
       Kind::kCount},
      {"book.min_price", "ask price floor",
       [](const MarketConfig& c) {
         return as_double(c.protocol.book.min_price);
       },
       [](MarketConfig& c, double v) {
         c.protocol.book.min_price = static_cast<p2p::Credits>(v);
       },
       Kind::kCount},
      {"book.max_price", "ask price ceiling (book level count)",
       [](const MarketConfig& c) {
         return as_double(c.protocol.book.max_price);
       },
       [](MarketConfig& c, double v) {
         c.protocol.book.max_price = static_cast<p2p::Credits>(v);
       },
       Kind::kCount},
      {"book.reprice_rounds", "adaptive repricing cadence in rounds",
       [](const MarketConfig& c) {
         return as_double(c.protocol.book.reprice_rounds);
       },
       [](MarketConfig& c, double v) {
         c.protocol.book.reprice_rounds = static_cast<std::size_t>(v);
       },
       Kind::kCount},
      {"book.cross", "0=best-ask, 1=fill-weighted, 2=limit",
       [](const MarketConfig& c) {
         return as_double(static_cast<int>(c.protocol.book.cross));
       },
       [](MarketConfig& c, double v) {
         c.protocol.book.cross =
             static_cast<p2p::ProtocolConfig::OrderBookConfig::CrossStrategy>(
                 static_cast<int>(v));
       },
       Kind::kEnum, 2.0},
      {"book.limit_price", "resting-bid limit for book.cross=2",
       [](const MarketConfig& c) {
         return as_double(c.protocol.book.limit_price);
       },
       [](MarketConfig& c, double v) {
         c.protocol.book.limit_price = static_cast<p2p::Credits>(v);
       },
       Kind::kCount},
      {"book.seller_fraction", "fraction of peers that post asks",
       [](const MarketConfig& c) { return c.protocol.book.seller_fraction; },
       [](MarketConfig& c, double v) {
         c.protocol.book.seller_fraction = v;
       },
       Kind::kFraction},

      // Strategy layer (adversarial peer populations). All fractions at 0
      // keeps the layer disabled and every run byte-identical to default.
      {"strat.free_riders", "fraction of peers that never upload or sell",
       [](const MarketConfig& c) {
         return c.protocol.strat.free_rider_fraction;
       },
       [](MarketConfig& c, double v) {
         c.protocol.strat.free_rider_fraction = v;
       },
       Kind::kFraction},
      {"strat.whitewashers",
       "fraction that cycles identity when balance drops below threshold",
       [](const MarketConfig& c) {
         return c.protocol.strat.whitewash_fraction;
       },
       [](MarketConfig& c, double v) {
         c.protocol.strat.whitewash_fraction = v;
       },
       Kind::kFraction},
      {"strat.whitewash_threshold", "balance below which a whitewasher cycles",
       [](const MarketConfig& c) {
         return c.protocol.strat.whitewash_threshold;
       },
       [](MarketConfig& c, double v) {
         c.protocol.strat.whitewash_threshold = v;
       }},
      {"strat.colluders", "fraction running credit-wash cliques",
       [](const MarketConfig& c) { return c.protocol.strat.collude_fraction; },
       [](MarketConfig& c, double v) {
         c.protocol.strat.collude_fraction = v;
       },
       Kind::kFraction},
      {"strat.collude_clique", "peers per collusion ring (>= 2)",
       [](const MarketConfig& c) {
         return as_double(c.protocol.strat.collude_clique);
       },
       [](MarketConfig& c, double v) {
         c.protocol.strat.collude_clique = static_cast<std::size_t>(v);
       },
       Kind::kCount},
      {"strat.collude_amount", "credits washed per ring edge per round",
       [](const MarketConfig& c) {
         return as_double(c.protocol.strat.collude_amount);
       },
       [](MarketConfig& c, double v) {
         c.protocol.strat.collude_amount = static_cast<std::uint64_t>(v);
       },
       Kind::kCount},
      {"strat.staked", "fraction of stake-bonded seeders",
       [](const MarketConfig& c) { return c.protocol.strat.staked_fraction; },
       [](MarketConfig& c, double v) {
         c.protocol.strat.staked_fraction = v;
       },
       Kind::kFraction},
      {"strat.stake_amount", "credits a seeder bonds to advertise",
       [](const MarketConfig& c) {
         return as_double(c.protocol.strat.stake_amount);
       },
       [](MarketConfig& c, double v) {
         c.protocol.strat.stake_amount = static_cast<std::uint64_t>(v);
       },
       Kind::kCount},
      {"strat.stake_slash", "stake fraction forfeited on departure",
       [](const MarketConfig& c) { return c.protocol.strat.stake_slash; },
       [](MarketConfig& c, double v) { c.protocol.strat.stake_slash = v; },
       Kind::kFraction},
      {"strat.revalidate_rounds", "stake top-up cadence in rounds (>= 1)",
       [](const MarketConfig& c) {
         return as_double(c.protocol.strat.revalidate_rounds);
       },
       [](MarketConfig& c, double v) {
         c.protocol.strat.revalidate_rounds = static_cast<std::size_t>(v);
       },
       Kind::kCount},
  };
  return kTable;
}

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

std::optional<std::string> set_param_checked(core::MarketConfig& cfg,
                                             std::string_view key,
                                             double value) {
  const ParamDesc* desc = find_param(key);
  if (desc == nullptr) {
    return "unknown parameter: " + std::string(key);
  }
  std::string err = desc->check(value);
  if (!err.empty()) return err;
  desc->set(cfg, value);
  return std::nullopt;
}

}  // namespace creditflow::scenario
