// perfbench: the benchmark program — one workload, one seed, one process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--tiny]
//
// --trace 0 runs the workload untraced and reports the end-to-end
// metrics. --trace 1 runs it untraced and then traced, reports the
// per-layer metrics from the traced pass (trace.overhead_frac compares the
// two), writes the spans as Chrome-trace JSON into the work dir and prints
// the per-layer table on stderr.
//
// Stdout carries the host/build context, the output digest and, as its
// last line, one JSON object {"correct","attempted","failed","metrics"}.
// The exit code is 0 only when every check held.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace {

using namespace perfbench;

/// A metric as BENCHMARK.json declares it, plus the end-to-end metric and
/// workload a change to its layer should move.
struct MetricDef {
  const char* name;
  const char* unit;
  const char* moves;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "market construction + start(); sweep plan + store open"},
    {"wall_s", "s", "the measured part of the workload"},
    {"peer_rounds_per_s", "1/s", "alive peers summed over rounds / wall_s"},
    {"round_ms_p50", "ms", "per-round time (sweep: per grid point mean)"},
    {"round_ms_p90", "ms", "per-round time (sweep: per grid point mean)"},
    {"runs_per_s", "1/s", "market runs or sweep runs completed / wall_s"},
    {"peak_rss_mb", "MB", "process peak resident memory"},
    {"bytes_per_peer", "B", "peak RSS / peak alive peers"},
};

constexpr const char* kPurchase =
    "round_ms_p50, peer_rounds_per_s @ scale-100k; runs_per_s @ fig11-sweep";
constexpr const char* kExact = "exact; must not change under refactors";
constexpr const char* kMemory = "bytes_per_peer, peak_rss_mb @ scale-100k";
constexpr const char* kGuard = "wall_s @ all (guard)";
constexpr const char* kBook = "round_ms_p50 @ book-adv";
constexpr const char* kStrategy = "round_ms_p90 @ book-adv (exact)";
constexpr const char* kSweep = "runs_per_s, wall_s @ fig11-sweep";

constexpr MetricDef kPerLayer[] = {
    {"p2p.purchase_ms", "ms", kPurchase},
    {"p2p.purchase_ns_per_peer", "ns", kPurchase},
    {"p2p.ns_per_tx", "ns", kPurchase},
    {"p2p.seed_ms", "ms", "round_ms_p50 @ all (guard)"},
    {"p2p.other_ms", "ms", "round_ms_p90 @ book-adv, scale-100k"},
    {"p2p.transactions", "count", kExact},
    {"p2p.liquidity_failures", "count", kExact},
    {"p2p.phase_one_word", "count", kExact},
    {"p2p.phase_two_word", "count", kExact},
    {"p2p.phase_generic", "count", kExact},
    {"p2p.fast_path_ratio", "ratio", kExact},
    {"p2p.candidates_mean", "count", kExact},
    {"p2p.churn_arrivals", "count", kExact},
    {"p2p.churn_departures", "count", kExact},
    {"p2p.overlay_cells_in_use", "count", kMemory},
    {"p2p.overlay_cell_capacity", "count", kMemory},
    {"p2p.overlay_cell_use_ratio", "ratio", kMemory},
    {"p2p.overlay_edges_dropped", "count", kMemory},
    {"sim.pending_events_per_peer", "ratio", kMemory},
    {"sim.queue_depth_mean", "count", kMemory},
    {"graph.bootstrap_s", "s", "setup_s @ scale-100k"},
    {"p2p.start_s", "s", "setup_s @ scale-100k"},
    {"mem.setup_hwm_mb", "MB", "peak_rss_mb @ scale-100k"},
    {"mem.steady_rss_mb", "MB", "peak_rss_mb @ scale-100k"},
    {"core.snapshot_us", "us", kGuard},
    {"econ.gini_us", "us", kGuard},
    {"p2p.ledger_audit_us", "us", kGuard},
    {"market.asks_posted", "count", kBook},
    {"market.fills", "count", kBook},
    {"market.fill_ratio", "ratio", kBook},
    {"market.asks_expired", "count", kBook},
    {"market.depth_mean", "count", kBook},
    {"strategy.whitewash_resets", "count", kStrategy},
    {"strategy.stake_topups", "count", kStrategy},
    {"strategy.stake_slashed", "count", kStrategy},
    {"scenario.plan_ms", "ms", kSweep},
    {"scenario.run_s_p50", "s", kSweep},
    {"scenario.run_purchase_frac", "ratio", kSweep},
    {"scenario.store_put_us", "us", kSweep},
    {"scenario.record_bytes", "B", kSweep},
    {"scenario.record_parse_us", "us", kSweep},
    {"scenario.sink_add_us", "us", kSweep},
    {"scenario.render_ms", "ms", kSweep},
    {"scenario.overhead_frac", "ratio", kSweep},
    {"trace.overhead_frac", "ratio", "traced wall_s / untraced wall_s - 1"},
    {"check.failed_fraction", "ratio", "failed checks / checks attempted"},
};

std::string first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Size of cpu0's unified or data cache at `level` ("" when absent).
std::string cache_size(int level) {
  for (int i = 0; i < 16; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string lvl = first_line(dir + "level");
    if (lvl.empty()) break;
    const std::string type = first_line(dir + "type");
    if (lvl == std::to_string(level) && type != "Instruction") {
      return first_line(dir + "size");
    }
  }
  return "";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "";
}

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

std::string context_json() {
  std::ostringstream out;
  out << "{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu_model\":" << json_string(cpu_model())
      << ",\"l2\":" << json_string(cache_size(2))
      << ",\"l3\":" << json_string(cache_size(3))
      << ",\"compiler\":" << json_string(__VERSION__)
      << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
      << ",\"cxx_flags\":" << json_string(PERFBENCH_CXX_FLAGS)
      << ",\"optimized\":" << (kOptimized ? "true" : "false")
      << ",\"ndebug\":" << (kNdebug ? "true" : "false") << "}";
  return out.str();
}

void print_layer_table(const Outcome& out, const SpanLog& log,
                       const Options& o) {
  std::FILE* f = stderr;
  std::fprintf(f, "\nper-layer table: %s, seed %llu (traced pass)\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed));
  std::fprintf(f, "%-40s %7s %12s %12s %8s  %s\n", "span / phase", "calls",
               "total_ms", "self_ms", "%parent", "counts and bytes");
  const std::vector<LayerRow> rows = layer_rows(log.spans());
  std::map<std::string, double> total_of;
  for (const LayerRow& row : rows) total_of[row.path] = row.total_ms;
  const auto share = [&](const std::string& parent, double ms) {
    const auto it = total_of.find(parent);
    return it == total_of.end() || it->second <= 0.0
               ? 100.0
               : 100.0 * ms / it->second;
  };
  for (const LayerRow& row : rows) {
    const auto slash = row.path.rfind('/');
    const std::string name =
        slash == std::string::npos ? row.path : row.path.substr(slash + 1);
    const std::string parent =
        slash == std::string::npos ? "" : row.path.substr(0, slash);
    const auto note = out.notes.find(name);
    std::fprintf(f, "%-40s %7zu %12.3f %12.3f %7.1f%%  %s\n",
                 (std::string(2 * row.depth, ' ') + name).c_str(), row.calls,
                 row.total_ms, row.self_ms, share(parent, row.total_ms),
                 note == out.notes.end() ? "" : note->second.c_str());
    for (const Outcome::PhaseRow& phase : out.phases) {
      if (phase.under != row.path) continue;
      std::fprintf(f, "%-40s %7s %12.3f %12s %7.1f%%  %s\n",
                   (std::string(2 * row.depth + 2, ' ') + "[" + phase.name +
                    "]")
                       .c_str(),
                   "", phase.total_ms, "", share(row.path, phase.total_ms),
                   "program's own phase readout");
    }
  }
  std::fprintf(f, "\n%-30s %16s %-6s  %s\n", "per-layer metric", "value",
               "unit", "moves");
  for (const MetricDef& m : kPerLayer) {
    const auto it = out.values.find(m.name);
    std::fprintf(f, "%-30s %16.6g %-6s  %s\n", m.name,
                 it == out.values.end() ? 0.0 : it->second, m.unit, m.moves);
  }
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--tiny]\n",
               msg);
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  int trace = 0;
  o.work_dir = ".bench_build/perfbench/work";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::atoi(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--work-dir" && has_value) {
      o.work_dir = argv[++i];
    } else {
      return usage(("bad argument: " + arg).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : workload_names()) known |= name == o.workload;
  if (!known) return usage(("unknown workload: " + o.workload).c_str());
  if (o.seconds < 1) return usage("--seconds must be at least 1");
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");
  // Set-ups timed per pass, so setup_s is a median of medians. The
  // sweep's takes a third of a millisecond and is repeated most (spread
  // between its runs); the 10^5-peer market's takes seconds, so it is not
  // repeated within a pass.
  o.setup_reps = trace == 1                    ? 1
                 : o.workload == "scale-100k"  ? 1
                 : o.workload == "fig11-sweep" ? 181
                                               : 6;
  std::filesystem::create_directories(o.work_dir);

  const std::string context = context_json();
  std::printf("perfbench context %s\n", context.c_str());
  if (!kOptimized || !kNdebug) {
    std::fprintf(stderr,
                 "perfbench: WARNING: build is not optimised (build type %s, "
                 "optimized=%d, NDEBUG=%d); timings are not comparable\n",
                 PERFBENCH_BUILD_TYPE, kOptimized, kNdebug);
  }

  Outcome out;
  try {
    SpanLog untraced(false);
    out = run_workload(o, untraced);
    if (trace == 1) {
      const Outcome plain = out;
      SpanLog traced(true);
      out = run_workload(o, traced);
      out.check(out.digest == plain.digest,
                "traced and untraced passes produced different outputs");
      out.attempted += plain.attempted;
      out.failed += plain.failed;
      out.problems.insert(out.problems.end(), plain.problems.begin(),
                          plain.problems.end());
      out.values["trace.overhead_frac"] =
          out.values.at("wall_s") / plain.values.at("wall_s") - 1.0;
      // Memory readouts from the first pass, before any market was freed.
      for (const char* m : {"mem.setup_hwm_mb", "mem.steady_rss_mb"}) {
        if (plain.values.count(m) != 0) out.values[m] = plain.values.at(m);
      }
      out.values["graph.bootstrap_s"] = time_bootstrap_graph(o, traced);

      const std::string path = o.work_dir + "/trace-" + o.workload + "-seed" +
                               std::to_string(o.seed) + ".json";
      std::ofstream(path) << traced.chrome_json(context);
      std::printf("perfbench trace %s (%zu spans)\n", path.c_str(),
                  traced.spans().size());
      print_layer_table(out, traced, o);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }

  const std::string expected = expected_digest(o);
  if (!expected.empty()) {
    out.check(out.digest == expected,
              "digest " + out.digest + " != recorded " + expected);
  }
  std::printf("perfbench digest %s workload=%s seed=%llu seconds=%d%s%s\n",
              out.digest.c_str(), o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds,
              o.tiny ? " tiny" : "",
              expected.empty() ? " (no recorded digest for this seed)"
                               : " (checked against the recorded digest)");

  const auto emit = [&](const auto& defs) {
    std::string metrics;
    for (const MetricDef& m : defs) {
      const auto it = out.values.find(m.name);
      const double value = it == out.values.end() ? 0.0 : it->second;
      out.check(std::isfinite(value),
                std::string("metric ") + m.name + " is not finite");
      if (!metrics.empty()) metrics += ", ";
      metrics += '"';
      metrics += m.name;
      metrics += "\": {\"value\": ";
      metrics += number(std::isfinite(value) ? value : 0.0);
      metrics += ", \"unit\": \"";
      metrics += m.unit;
      metrics += "\"}";
    }
    return metrics;
  };
  std::string metrics;
  if (trace == 1) {
    out.values["check.failed_fraction"] =
        static_cast<double>(out.failed) / static_cast<double>(out.attempted);
    metrics = emit(kPerLayer);
  } else {
    metrics = emit(kEndToEnd);
  }
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }
  const bool correct = out.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  return correct ? 0 : 1;
}
