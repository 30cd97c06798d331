// Golden byte-equality regression tests: one table of short sweeps, each
// pinned by the FNV-1a hashes of its rendered aggregate CSV, aggregate JSON
// and per-run CSV.
//
// The fig11/fig09 rows (and the traced fig11 row) carry constants captured
// before the zero-alloc round loop, span-based active-peer iteration and
// streaming aggregation landed. The other rows pin one mechanism path
// each, so a refactor of the purchase path cannot move any of them
// silently:
//  * the order book: adaptive and fixed-markup ask pricing, each crossed
//    best-ask, fill-weighted and limit (book.cross = 0, 1, 2);
//  * seller choice: fill-weighted (fig01_condensed, with Poisson prices)
//    and cheapest-ask (ext01_auction, with Poisson and per-seller prices);
//  * candidate-mask widths: a hub overlay whose buyers carry 65..128
//    budgeted neighbors (two words) and the same overlay with a 96-chunk
//    window (generic). Width rows (and fig09, for one word) also check,
//    with one direct protocol run, that their purchase.phase_* counter
//    fires;
//  * strategies (free-riders, whitewashers, stake-bonded seeders,
//    colluders) and credit injection.
//
// These hashes are deliberately brittle: ANY change to simulation
// arithmetic, RNG consumption order, active-peer iteration order, metric
// emission, or number formatting trips them. A failure is not noise — it
// means previously published sweep outputs are no longer reproducible. If
// the change is intentional (a new metric column, a protocol behavior fix),
// re-capture the constants (a failing row prints its actual hashes) and
// say so loudly in the change description.
//
// Hash stability across build types was verified at capture time: -O0 and
// -O2 GCC builds produce identical bytes (x86-64 SSE2 double arithmetic,
// no FMA contraction), so one set of constants serves Debug and Release CI.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "p2p/protocol.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace creditflow::scenario {
namespace {

/// One golden cell: a preset with overrides, swept at a short horizon
/// (snapshots every quarter of it).
struct GoldenCell {
  const char* name;
  const char* preset;
  /// "key=value" sets the base spec; "key=a,b,..." adds a sweep axis.
  std::vector<std::string> overrides;
  double horizon;
  std::size_t seeds;
  std::uint64_t aggregate_csv;
  std::uint64_t aggregate_json;
  std::uint64_t runs_csv;
  /// Run with the span tracer live (observability must be a pure readout).
  bool traced = false;
  /// purchase.phase_* counter a direct run of the base spec must bump;
  /// nullptr when the row pins no candidate-mask width.
  const char* width_counter = nullptr;
};

void PrintTo(const GoldenCell& cell, std::ostream* os) { *os << cell.name; }

/// The row's base spec; multi-valued overrides go to `sweep` when given.
ScenarioSpec base_spec(const GoldenCell& cell, SweepSpec* sweep) {
  const ScenarioSpec* preset = ScenarioRegistry::builtin().find(cell.preset);
  if (preset == nullptr) {
    ADD_FAILURE() << "missing preset " << cell.preset;
    return {};
  }
  ScenarioSpec spec = *preset;
  EXPECT_EQ(spec.set_checked("horizon", cell.horizon), std::nullopt);
  EXPECT_EQ(spec.set_checked("snapshot_interval", cell.horizon / 4.0),
            std::nullopt);
  for (const std::string& text : cell.overrides) {
    SweepAxis axis = SweepAxis::parse(text);
    if (axis.values.size() == 1) {
      EXPECT_EQ(spec.set_checked(axis.param, axis.values[0]), std::nullopt)
          << text;
    } else if (sweep != nullptr) {
      sweep->axes.push_back(std::move(axis));
    }
  }
  return spec;
}

class GoldenOutputs : public ::testing::TestWithParam<GoldenCell> {};

TEST_P(GoldenOutputs, MatchesPinnedHashes) {
  const GoldenCell& cell = GetParam();
  SweepSpec sweep;
  sweep.seeds = cell.seeds;
  ScenarioSpec spec = base_spec(cell, &sweep);
  SweepRunner::Options options;
  options.jobs = 1;
  options.keep_reports = false;
  if (cell.traced) util::Tracer::instance().enable();
  SweepRunner runner(std::move(spec), std::move(sweep), options);
  ResultSink sink;
  sink.add_all(runner.run());
  if (cell.traced) {
    EXPECT_GT(util::Tracer::instance().snapshot().size(), 0u)
        << "tracing was supposed to be live during the sweep";
    util::Tracer::instance().disable();
    util::Tracer::instance().clear();
  }
  const std::uint64_t csv = util::fnv1a64(sink.aggregate_csv());
  const std::uint64_t json = util::fnv1a64(sink.aggregate_json());
  const std::uint64_t runs = util::fnv1a64(sink.runs_csv());
  EXPECT_TRUE(csv == cell.aggregate_csv && json == cell.aggregate_json &&
              runs == cell.runs_csv)
      << cell.name << " hashes: " << std::hex << "0x" << csv << "ULL, 0x"
      << json << "ULL, 0x" << runs << "ULL";

  if (cell.width_counter != nullptr) {
    const core::MarketConfig cfg = base_spec(cell, nullptr).materialize();
    sim::Simulator sim;
    p2p::StreamingProtocol proto(cfg.protocol, sim);
    proto.start();
    sim.run_until(cfg.horizon);
    EXPECT_GT(proto.metrics().counter(cell.width_counter), 0u)
        << "the row never reached its candidate-mask width";
  }
}

const std::vector<GoldenCell>& cells() {
  static const std::vector<GoldenCell> kCells = {
      // The churn-heavy case: join/leave on the dense active-peer array,
      // the free-slot scan, span-based seeding/taxation/snapshot walks and
      // the recycled event-queue slots.
      {"fig11_churn", "fig11_churn",
       {"churn.arrival_rate=1,2", "churn.mean_lifespan=100,200"}, 400.0, 2,
       0xbd9622db89f1920bULL, 0x1d7620dbf7cda782ULL, 0xc27d93ece3617262ULL},
      // The same sweep with the span tracer (and the purchase-latency
      // histogram it gates) live: same bytes.
      {"fig11_churn_traced", "fig11_churn",
       {"churn.arrival_rate=1,2", "churn.mean_lifespan=100,200"}, 400.0, 2,
       0xbd9622db89f1920bULL, 0x1d7620dbf7cda782ULL, 0xc27d93ece3617262ULL,
       /*traced=*/true},
      // The closed-market taxation case: redistribution over the active
      // span and the cached tax.redistributions counter cell.
      {"fig09_taxation", "fig09_taxation", {"tax.rate=0.1,0.2"}, 400.0, 2,
       0x358101665fc3a5f4ULL, 0x2bdb17bb58addb64ULL, 0x5a2827253bad8536ULL,
       false, "purchase.phase_one_word"},
      {"obk01_clearing", "obk01_clearing", {"book.cross=0,1,2"}, 200.0, 1,
       0xd21f9e9ad73e1316ULL, 0xb3ba759c35f061b5ULL, 0x31776301dbcd4279ULL},
      {"obk02_markup", "obk02_markup", {"book.cross=0,1,2"}, 200.0, 1,
       0x4685a629e0e11038ULL, 0xda058a046583261dULL, 0x5a6f67694aa5da01ULL},
      {"fig01_condensed", "fig01_condensed", {}, 200.0, 1,
       0x8b9a035cbc521f39ULL, 0x776bc0fed3a45584ULL, 0x7ca80456f62ccc7cULL},
      {"ext01_auction", "ext01_auction", {}, 200.0, 1,
       0x59b360706fde707dULL, 0xac7f595e2456ebeeULL, 0x0a09321481f3546eULL},
      {"ext01_auction_per_seller", "ext01_auction", {"pricing.kind=2"}, 200.0,
       1, 0xe81f10f2dadd0ef3ULL, 0x304bc6bf0222ab42ULL, 0xa3df558b6bd76464ULL},
      {"hub_two_word", "baseline", {"peers=600", "overlay_degree=80"}, 40.0,
       1, 0xa2e9ef24593dd1dbULL, 0x347d69fefb8220e6ULL, 0x1cc62e2743fde424ULL,
       false, "purchase.phase_two_word"},
      {"hub_generic", "baseline",
       {"peers=600", "overlay_degree=80", "window_chunks=96",
        "max_purchase_attempts=96"},
       40.0, 1, 0xc6d0430100b79756ULL, 0xc3a65fd84368c385ULL,
       0xd013bc8444bb87dbULL, false, "purchase.phase_generic"},
      {"adv01_freeride", "adv01_freeride", {}, 200.0, 1,
       0x624128912983139bULL, 0x25fbe2e3b078ff44ULL, 0xe0cf7725b4bfce0aULL},
      {"adv02_whitewash", "adv02_whitewash", {}, 200.0, 1,
       0x15d0bbb44d9397ecULL, 0x577308dba3859c55ULL, 0x5997821c389d9253ULL},
      {"adv03_stake", "adv03_stake", {}, 200.0, 1,
       0xf504034c3079bdc1ULL, 0x4144b0d389a41f50ULL, 0x7ece5741b6d1fd82ULL},
      {"colluders", "asymmetric", {"strat.colluders=0.2"}, 200.0, 1,
       0x43c3301dcaa691ccULL, 0x070a839c147e41fdULL, 0x648c96cf37bbb02bULL},
      {"ext02_injection", "ext02_injection", {}, 200.0, 1,
       0x1fb8a0fb479324f5ULL, 0x5a2dccf0404f20c8ULL, 0x82b473ecca42e798ULL},
  };
  return kCells;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, GoldenOutputs, ::testing::ValuesIn(cells()),
    [](const ::testing::TestParamInfo<GoldenCell>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace creditflow::scenario
