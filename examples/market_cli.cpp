// market_cli — run a custom credit market, a named scenario, or a full
// parameter sweep from the command line.
//
// Single run:
//   market_cli [--scenario NAME|FILE] [--set key=value]... [legacy flags]
//
// Sweep (any --sweep axis or --seeds > 1 switches modes):
//   market_cli --scenario fig09_taxation
//              --sweep tax.threshold=10:120:5 --sweep tax.rate=0.1,0.2
//              --seeds 4 --jobs 0 --out fig09_sweep.csv
//
// Sweeps expand the cartesian grid of all axes, replicate each point with
// independent derived RNG streams, and run everything on a thread pool
// (--jobs 0 = all cores). Aggregated mean ± CI rows render to the console
// and, with --out, land as CSV (or JSON with --json); --runs-out writes the
// raw per-run rows. Outputs are byte-identical for any --jobs value.
//
// Sweep execution API v2 extras:
//   --cache-dir DIR   content-addressed run cache: re-running a grid after
//                     adding axes/seeds only computes the missing runs
//   --fsync           fsync each cache append (power-cut durability)
//   --shard I/N       execute only the i-th strided shard of the run list;
//                     --out then writes the partial set as run records
//   --merge FILE      (repeatable, own mode) merge shard record files back
//                     into the aggregate outputs — byte-identical to the
//                     single-process sweep
//   --eta             live per-run progress with a wall-time ETA, and
//                     telemetry columns in --runs-out
//
// Distributed sweeps (work-stealing over TCP; see scenario/coordinator.hpp):
//   --serve PORT         coordinate this sweep on 0.0.0.0:PORT, handing
//                        runs to socket workers dynamically and emitting
//                        the usual outputs — byte-identical to the
//                        single-process sweep
//   --coordinator H:P    same, binding an explicit address (e.g.
//                        127.0.0.1:9000 to keep a sweep loopback-only)
//   --worker HOST:PORT   join the sweep served at HOST:PORT as a worker
//                        (--jobs parallel sessions; it takes no spec or
//                        sweep flags — the plan arrives over the wire)
//   --lease-timeout S    revoke + re-queue a silent worker's leases after
//                        S seconds (coordinator side; default 30)
//   --lease-batch K      grant up to K runs per NEXT, sized per worker
//                        from measured throughput (default 4)
//
// A coordinator killed mid-sweep restarts with the same command on the
// same --cache-dir: the stored runs are recalled, and only the rest are
// leased again.
//
// Prints the market report (single-run mode), optionally the Gini chart,
// and (with --trace) the sustainability analyzer's verdict on the
// empirical Table I mapping. Exit code 0 on success/conserved ledger, 2 on
// a conservation violation or failed sweep runs, 64 on a usage error —
// among them a flag the command's mode does not read (kFlagModes).
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/analyzer.hpp"
#include "core/market.hpp"
#include "scenario/scenario.hpp"
#include "util/assert.hpp"
#include "util/chart.hpp"
#include "util/fsio.hpp"
#include "util/math.hpp"
#include "util/socket.hpp"
#include "util/trace.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "scenario selection:\n"
      << "  --scenario NAME|FILE named preset (see --list-scenarios) or a\n"
      << "                       spec file saved with --print-spec\n"
      << "  --list-scenarios     list the built-in presets and exit\n"
      << "  --print-spec         print the effective spec and exit\n"
      << "  --set key=value      override any scenario parameter\n"
      << "sweep mode:\n"
      << "  --sweep key=SPEC     add a grid axis; SPEC is lo:hi:step,\n"
      << "                       a,b,c or a single value (repeatable)\n"
      << "  --seeds N            replications per grid point (default 1)\n"
      << "  --jobs N             worker threads, 0 = all cores (default 0)\n"
      << "  --out FILE           write aggregated rows (CSV, or JSON\n"
      << "                       with --json); in --shard mode, the\n"
      << "                       partial run-record set instead\n"
      << "  --runs-out FILE      write raw per-run rows as CSV\n"
      << "  --json               aggregate output as JSON instead of CSV\n"
      << "  --quiet              suppress per-run progress lines\n"
      << "  --cache-dir DIR      skip runs already in the content-addressed\n"
      << "                       run cache at DIR; append fresh ones\n"
      << "  --fsync              fsync run-cache appends (power-cut\n"
      << "                       durability; needs --cache-dir)\n"
      << "  --shard I/N          execute only shard I of N (strided run-\n"
      << "                       list partition, 0-based)\n"
      << "  --merge FILE         merge shard record files (repeatable) and\n"
      << "                       emit the aggregate outputs; no execution\n"
      << "  --eta                live ETA in progress lines (overrides\n"
      << "                       --quiet) + wall-time telemetry columns\n"
      << "                       in --runs-out\n"
      << "distributed sweep mode (work-stealing over TCP):\n"
      << "  --serve PORT         coordinate this sweep on 0.0.0.0:PORT\n"
      << "  --coordinator H:P    coordinate, binding host H port P (a\n"
      << "                       killed coordinator restarts with the same\n"
      << "                       command on the same --cache-dir)\n"
      << "  --worker HOST:PORT   join the sweep served at HOST:PORT\n"
      << "                       (--jobs = parallel worker sessions)\n"
      << "  --lease-timeout S    re-queue a silent worker's runs after S\n"
      << "                       seconds (coordinator side; default 30)\n"
      << "  --lease-batch K      grant up to K runs per NEXT, adaptively\n"
      << "                       sized per worker (default 4; 1 disables)\n"
      << "single-run convenience flags (aliases of --set):\n"
      << "  --peers N --credits C --horizon S --seed K\n"
      << "  --pricing uniform|poisson|perseller|linear\n"
      << "  --spend-cv X --upload-cv X\n"
      << "  --tax RATE THRESH    enable income taxation\n"
      << "  --dynamic M          dynamic spending with threshold m\n"
      << "  --churn RATE LIFE    open market: arrivals/s, mean lifespan s\n"
      << "  --inject INT AMT     mint AMT credits/peer every INT seconds\n"
      << "  --condensed          the Fig. 1 no-safeguards configuration\n"
      << "  --trace              enable trace + analyzer verdict\n"
      << "  --chart              render the Gini(t) chart\n"
      << "observability (all modes unless noted):\n"
      << "  --trace-out FILE     capture a Chrome trace-event JSON of\n"
      << "                       protocol phases, event dispatch, and run\n"
      << "                       lifecycles (load in Perfetto / about:tracing)\n"
      << "  --series-out FILE    per-round time-series CSV (single run); in\n"
      << "                       sweep mode a prefix: FILE.run<idx>.csv per\n"
      << "                       executed run (cache hits don't simulate,\n"
      << "                       so they emit none)\n"
      << "  --series-every N     sample every N rounds (default 1)\n"
      << "  --status-port P      with --serve/--coordinator: answer HTTP\n"
      << "                       GET /status with live JSON progress on\n"
      << "                       port P (0 picks a free one)\n"
      << "stdout stays machine-clean: pass `-` to --out/--runs-out to pipe\n"
      << "the payload; all progress chatter goes to stderr.\n";
  std::exit(64);
}

double number_or_usage(const char* text, const char* argv0) {
  const auto v = creditflow::util::parse_number(text);
  if (!v) usage(argv0);
  return *v;
}

/// A count option (--seeds, --jobs, ...): a non-negative integer within
/// the bound every scenario count has; anything else is a usage error.
std::size_t count_or_usage(const char* text, const char* argv0) {
  const double v = number_or_usage(text, argv0);
  if (!(v >= 0.0 && v <= creditflow::scenario::ParamDesc::kMaxCount) ||
      v != std::floor(v)) {
    usage(argv0);
  }
  return static_cast<std::size_t>(v);
}

creditflow::scenario::ScenarioSpec load_scenario(const std::string& name) {
  using creditflow::scenario::ScenarioRegistry;
  using creditflow::scenario::ScenarioSpec;
  if (const ScenarioSpec* spec = ScenarioRegistry::builtin().find(name)) {
    return *spec;
  }
  std::ifstream in(name);
  if (in) {
    std::ostringstream text;
    text << in.rdbuf();
    return ScenarioSpec::parse(text.str());
  }
  std::cerr << "unknown scenario (and no such spec file): " << name << "\n"
            << "available presets:\n";
  for (const auto& known : ScenarioRegistry::builtin().names()) {
    std::cerr << "  " << known << "\n";
  }
  std::exit(64);
}

bool write_file(const std::string& path, const std::string& content) {
  if (path == "-") {
    // Machine-clean piping: every progress line in this binary goes to
    // stderr, so "-" hands the payload to stdout uncorrupted.
    std::cout << content;
    std::cout.flush();
    return static_cast<bool>(std::cout);
  }
  // Temp-file + rename: a crash (or a concurrent reader) never sees a
  // torn output file.
  if (!creditflow::util::atomic_write_file(path, content)) {
    std::cerr << "failed to write " << path << "\n";
    return false;
  }
  return true;
}

/// RAII trace capture: enabled at startup by --trace-out, written on every
/// exit path that unwinds main.
struct TraceDump {
  std::string path;
  ~TraceDump() {
    if (path.empty()) return;
    auto& tracer = creditflow::util::Tracer::instance();
    const std::size_t events = tracer.snapshot().size();
    tracer.write_json(path);
    std::cerr << "[trace] " << path << " (" << events << " events";
    if (tracer.dropped() > 0) {
      std::cerr << ", " << tracer.dropped() << " overwritten by ring wrap";
    }
    std::cerr << ")\n";
  }
};

/// Everything sweep mode and merge mode share downstream of execution.
struct SweepOutputOptions {
  std::string out_path;
  std::string runs_out_path;
  bool json = false;
  bool timing_columns = false;
};

/// The outcome part of a progress line — " FAILED: <error>", " cached
/// gini=<g>" or " gini=<g>" — alike for local sweeps, the coordinator and
/// workers.
std::string outcome(const creditflow::scenario::RunResult& r) {
  if (!r.error.empty()) return " FAILED: " + r.error;
  std::ostringstream out;
  out << (r.telemetry.from_cache ? " cached gini=" : " gini=")
      << r.metric("converged_gini");
  return out.str();
}

/// Print the first few failed-run errors (the rest are in the JSON/CSV
/// outputs), returning the failure count.
std::size_t report_failures(const creditflow::scenario::ResultSink& sink) {
  std::size_t failures = 0;
  constexpr std::size_t kMaxPrinted = 5;
  for (const auto& run : sink.runs()) {
    if (run.error.empty()) continue;
    if (++failures <= kMaxPrinted) {
      std::cerr << "  run " << run.run_index << ": " << run.error << "\n";
    }
  }
  if (failures > kMaxPrinted) {
    std::cerr << "  ... and " << failures - kMaxPrinted << " more\n";
  }
  return failures;
}

/// Write --out/--runs-out and report failures; exit code 0/2. With
/// `records` set (shard mode), --out receives that run-record payload
/// instead of the aggregate, and the (partial, hence misleading)
/// aggregate table is suppressed.
int emit_sweep_outputs(creditflow::scenario::ResultSink& sink,
                       const std::string& title,
                       const SweepOutputOptions& out,
                       const std::string* records = nullptr) {
  using namespace creditflow;
  sink.set_timing_columns(out.timing_columns);

  if (records == nullptr) {
    const std::vector<std::string> metrics = {
        "converged_gini", "mean_buffer_fill", "exchange_efficiency",
        "mean_balance",   "bankrupt_fraction"};
    // The human-facing table is progress chatter like everything else
    // here: stderr, so `--out -` leaves stdout machine-clean.
    sink.aggregate_table(title, metrics).print(std::cerr);
  }

  if (!out.out_path.empty()) {
    const std::string payload =
        records != nullptr
            ? *records
            : (out.json ? sink.aggregate_json() : sink.aggregate_csv());
    if (!write_file(out.out_path, payload)) return 2;
    if (records != nullptr) {
      std::cerr << "[shard] " << out.out_path << " (" << sink.size()
                << " run records)\n";
    } else {
      std::cerr << "[out] " << out.out_path << "\n";
    }
  }
  if (!out.runs_out_path.empty()) {
    if (!write_file(out.runs_out_path, sink.runs_csv())) return 2;
    std::cerr << "[runs] " << out.runs_out_path << "\n";
  }
  const std::size_t failures = report_failures(sink);
  if (failures > 0) {
    std::cerr << failures << " run(s) failed\n";
    return 2;
  }
  return 0;
}

struct SweepCliOptions {
  std::size_t jobs = 0;
  bool quiet = false;
  bool eta = false;
  std::string cache_dir;
  bool sharded = false;  ///< --shard given (even 0/1 — output run records)
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  bool coordinate = false;  ///< --serve/--coordinator given
  std::string bind_host = "0.0.0.0";
  std::uint16_t bind_port = 0;
  double lease_timeout = 30.0;
  std::size_t lease_batch = 4;  ///< --lease-batch ceiling per NEXT
  bool fsync = false;           ///< --fsync run-cache appends
  int status_port = -1;  ///< --status-port (coordinator mode); -1 off
  std::string series_out;
  std::size_t series_every = 1;
  SweepOutputOptions out;
};

/// Sweep mode, shard mode and coordinator mode: one SweepRunner, whose
/// executor is a Coordinator under --serve/--coordinator — it leases runs
/// to socket workers dynamically (work-stealing), and the outputs match a
/// single-process sweep byte for byte.
int run_sweep(const creditflow::scenario::ScenarioSpec& spec,
              creditflow::scenario::SweepSpec sweep,
              const SweepCliOptions& cli) {
  using namespace creditflow;
  const scenario::SweepPlan plan(spec, sweep);
  const std::size_t total =
      plan.shard(cli.shard_index, cli.shard_count).size();
  std::cerr << "sweep: " << sweep.num_points() << " grid points x "
            << sweep.seeds << " seeds = " << sweep.num_runs() << " runs";
  if (cli.sharded) {
    std::cerr << ", shard " << cli.shard_index << "/" << cli.shard_count
              << " owns " << total;
  }
  std::cerr << " (base scenario " << spec.name << ")\n";

  scenario::SweepRunner::Options options;
  options.jobs = cli.jobs;
  options.keep_reports = false;
  options.cache_dir = cli.cache_dir;
  options.fsync = cli.fsync;
  options.shard_index = cli.shard_index;
  options.shard_count = cli.shard_count;
  if (!cli.series_out.empty()) {
    // Under a coordinator the workers collect each run's series and stream
    // it back with the result; the files match a local sweep's byte for
    // byte.
    options.series_every = cli.series_every;
    options.series_out_prefix = cli.series_out;
    if (!cli.cache_dir.empty()) {
      std::cerr << "[series] note: cache hits skip the simulation and "
                   "write no series CSV\n";
    }
  }

  std::optional<scenario::Coordinator> coordinator;
  if (cli.coordinate) {
    scenario::Coordinator::Options co;
    co.host = cli.bind_host;
    co.port = cli.bind_port;
    co.lease_timeout_seconds = cli.lease_timeout;
    co.lease_batch_max = cli.lease_batch;
    co.status_port = cli.status_port;
    if (cli.status_port >= 0) {
      // Give scrapers a real window to observe the drained terminal state
      // (completed == plan_runs) before the process exits.
      co.drain_seconds = std::max(co.drain_seconds, 5.0);
    }
    coordinator.emplace(std::move(co));
    std::cerr << "[coordinator] listening on " << cli.bind_host << ":"
              << coordinator->port() << " (lease timeout " << cli.lease_timeout
              << "s)\n";
    if (coordinator->status_port() != 0) {
      std::cerr << "[status] GET http://" << cli.bind_host << ":"
                << coordinator->status_port() << "/status\n";
    }
    options.executor = &*coordinator;
  }

  std::size_t done = 0;
  std::size_t executed = 0;
  double executed_wall = 0.0;
  const double workers = static_cast<double>(
      cli.jobs != 0 ? cli.jobs
                    : std::max(1u, std::thread::hardware_concurrency()));
  // --eta overrides --quiet: a requested ETA needs the progress lines that
  // carry it. A coordinator's pace is its fleet's, which --jobs does not
  // describe, so it prints no ETA.
  const bool show_eta = cli.eta && !cli.coordinate;
  if (!cli.quiet || show_eta) {
    options.on_result = [&](const scenario::RunResult& r) {
      ++done;
      if (!r.telemetry.from_cache) {
        ++executed;
        executed_wall += r.telemetry.wall_seconds;
      }
      std::cerr << "[" << done << "/" << total << "] run " << r.run_index
                << outcome(r);
      if (show_eta && executed > 0) {
        // Remaining runs are almost all uncached (hits resolve first), so
        // the mean executed wall time is the right per-run estimate.
        const double mean_wall = executed_wall / static_cast<double>(executed);
        const double eta =
            static_cast<double>(total - done) * mean_wall / workers;
        std::cerr << " | eta " << static_cast<int>(eta + 0.5) << "s";
      }
      std::cerr << "\n";
    };
  }

  scenario::SweepRunner runner(spec, std::move(sweep), std::move(options));
  scenario::ResultSink sink;
  // Every grid point receives exactly `seeds` runs, and the sink refuses a
  // run past that count. It keeps every run and aggregates at the end.
  sink.set_expected_replications(runner.sweep().seeds);
  auto results = runner.run();

  if (!cli.cache_dir.empty()) {
    std::cerr << "[cache] hits=" << runner.cache_hits()
              << " executed=" << runner.executed() << "\n";
  }
  if (coordinator) {
    const scenario::SweepStatus status = coordinator->status();
    std::cerr << "[coordinator] executed=" << status.executed
              << " cache_hits=" << status.cache_hits
              << " requeued=" << status.requeued
              << " duplicates=" << status.duplicates
              << " resumed=" << status.leases_resumed
              << " workers=" << status.workers_seen << "\n";
  }

  if (cli.sharded) {
    // A shard emits its partial result set as run records — the merge
    // input — rather than a (misleadingly partial) aggregate.
    std::ostringstream records;
    for (const auto& r : results) {
      records << scenario::serialize_run_record(plan.key(r.run_index), r)
              << "\n";
    }
    const std::string payload = records.str();
    sink.add_all(std::move(results));
    return emit_sweep_outputs(sink, "", cli.out, &payload);
  }

  sink.add_all(std::move(results));
  return emit_sweep_outputs(sink, "sweep results — " + spec.name, cli.out);
}

/// --worker mode: join the sweep served at host:port; the plan arrives
/// over the wire, so no scenario flags are needed on this side.
int run_worker_mode(const std::string& host, std::uint16_t port,
                    std::size_t jobs, bool quiet) {
  using namespace creditflow;
  scenario::WorkerOptions options;
  options.sessions = jobs;
  if (!quiet) {
    options.on_result = [](const scenario::RunResult& r) {
      std::cerr << "[worker] run " << r.run_index << outcome(r) << "\n";
    };
  }
  std::cerr << "[worker] joining sweep at " << host << ":" << port << "\n";
  const scenario::WorkerReport report =
      scenario::run_worker(host, port, options);
  std::cerr << "[worker] executed=" << report.runs_executed
            << " duplicates=" << report.duplicates
            << " connect_retries=" << report.connect_retries
            << " wait_retries=" << report.wait_retries
            << " reconnects=" << report.reconnects
            << " resumed=" << report.leases_resumed
            << (report.completed ? " (sweep complete)" : "") << "\n";
  if (!report.completed) {
    std::cerr << "[worker] "
              << (report.error.empty() ? "coordinator went away"
                                       : report.error)
              << "\n";
    return 1;
  }
  return 0;
}

/// Parse "HOST:PORT" — or a bare "PORT", which leaves `host` at its
/// caller-supplied default; exits via usage() on malformed input.
void parse_host_port(const std::string& text, std::string& host,
                     std::uint16_t& port, const char* argv0) {
  std::string port_text = text;
  const auto colon = text.rfind(':');
  if (colon != std::string::npos) {
    host = text.substr(0, colon);
    port_text = text.substr(colon + 1);
    if (host.empty()) usage(argv0);
  }
  char* end = nullptr;
  const unsigned long v = std::strtoul(port_text.c_str(), &end, 10);
  if (end != port_text.c_str() + port_text.size() || port_text.empty() ||
      v == 0 || v > 65535) {
    usage(argv0);
  }
  port = static_cast<std::uint16_t>(v);
}

/// --merge mode: parse shard record files, recombine by run_index, emit the
/// same outputs a single-process sweep would.
int run_merge(const std::vector<std::string>& merge_files,
              const SweepOutputOptions& out) {
  using namespace creditflow;
  scenario::ResultSink sink;
  for (const auto& path : merge_files) {
    const auto records = scenario::read_run_records(path);
    std::cerr << "[merge] " << path << ": " << records.size()
              << " run records\n";
    for (const auto& record : records) sink.add(record.result);
  }
  return emit_sweep_outputs(sink, "merged sweep results", out);
}

/// Parse "I/N" (0-based shard of N); exits via usage() on malformed input.
void parse_shard(const std::string& text, SweepCliOptions& cli,
                 const char* argv0) {
  const auto slash = text.find('/');
  if (slash == std::string::npos) usage(argv0);
  char* end = nullptr;
  const std::string i_str = text.substr(0, slash);
  const std::string n_str = text.substr(slash + 1);
  cli.shard_index = std::strtoull(i_str.c_str(), &end, 10);
  if (end != i_str.c_str() + i_str.size() || i_str.empty()) usage(argv0);
  cli.shard_count = std::strtoull(n_str.c_str(), &end, 10);
  if (end != n_str.c_str() + n_str.size() || n_str.empty()) usage(argv0);
  if (cli.shard_count == 0 || cli.shard_index >= cli.shard_count) {
    std::cerr << "--shard wants I/N with I < N, got: " << text << "\n";
    usage(argv0);
  }
  cli.sharded = true;
}

/// The modes market_cli runs in. One applies to a command line: --worker,
/// else --merge, else --serve/--coordinator, else --shard, else a sweep
/// (--sweep or --seeds N > 1), else a single run.
enum Mode : unsigned {
  kSingle = 1u << 0,
  kSweep = 1u << 1,
  kShard = 1u << 2,
  kServe = 1u << 3,
  kWorker = 1u << 4,
  kMerge = 1u << 5,
};
constexpr const char* kModeNames[] = {"single-run", "sweep",  "shard",
                                      "coordinator", "worker", "merge"};

/// The flags that only some modes read, with those modes. A flag given in
/// a mode that does not read it would be ignored silently, so it is a usage
/// error. Flags not listed (--quiet, --trace-out, ...) apply everywhere. A
/// worker takes its plan over the wire and a merge reads run records, so
/// neither reads a spec flag; --jobs sizes a local pool or a worker's
/// sessions, which neither a single run, a coordinator nor a merge has.
constexpr std::pair<std::string_view, unsigned> kFlagModes[] = {
    {"--scenario --set --peers --credits --horizon --seed --pricing "
     "--spend-cv --upload-cv --tax --dynamic --churn --inject --condensed "
     "--trace --series-out --series-every --seeds",
     kSingle | kSweep | kShard | kServe},
    {"--chart", kSingle},
    {"--jobs", kSweep | kShard | kWorker},
    {"--sweep --cache-dir --fsync", kSweep | kShard | kServe},
    {"--out --runs-out --eta", kSweep | kShard | kServe | kMerge},
    {"--json", kSweep | kServe | kMerge},  // a shard writes JSONL records
    {"--shard", kShard},
    {"--serve --coordinator --lease-timeout --lease-batch --status-port",
     kServe},
    {"--worker", kWorker},
    {"--merge", kMerge},
};

/// Flags that do nothing without another one.
constexpr std::pair<std::string_view, std::string_view> kFlagNeeds[] = {
    {"--fsync", "--cache-dir"},
    {"--series-every", "--series-out"},
    {"--json", "--out"},
};

/// 0 when `mode` reads every flag in `given` and each flag's dependency is
/// given too; otherwise one line naming the flag, and 64.
int check_flags(const std::vector<std::string>& given, Mode mode) {
  std::map<std::string, unsigned, std::less<>> modes_of;
  for (const auto& [flags, modes] : kFlagModes) {
    std::istringstream words{std::string(flags)};
    for (std::string flag; words >> flag;) modes_of[flag] = modes;
  }
  for (const std::string& flag : given) {
    const auto it = modes_of.find(flag);
    if (it != modes_of.end() && (it->second & mode) == 0) {
      std::cerr << flag << " is not used in "
                << kModeNames[std::countr_zero(static_cast<unsigned>(mode))]
                << " mode\n";
      return 64;
    }
  }
  const auto has = [&given](std::string_view flag) {
    return std::find(given.begin(), given.end(), flag) != given.end();
  };
  for (const auto& [flag, needed] : kFlagNeeds) {
    if (has(flag) && !has(needed)) {
      std::cerr << flag << " requires " << needed << "\n";
      return 64;
    }
  }
  return 0;
}

/// Single-run mode (defined after main for readability); throws on a
/// configuration the market constructors reject.
int run_single(const creditflow::scenario::ScenarioSpec& spec,
               const SweepCliOptions& cli, bool want_chart);

}  // namespace

int main(int argc, char** argv) {
  using namespace creditflow;

  // The legacy default market; --scenario replaces the whole spec.
  scenario::ScenarioSpec spec;
  spec.name = "custom";
  spec.config.protocol.initial_peers = 300;
  spec.config.protocol.max_peers = 300;
  spec.config.protocol.initial_credits = 100;
  spec.config.protocol.seed = 2012;
  spec.config.horizon = 5000.0;
  spec.config.snapshot_interval = 125.0;

  scenario::SweepSpec sweep;
  SweepCliOptions cli;
  std::vector<std::string> merge_files;
  std::string trace_out;
  bool worker_mode = false;
  std::string worker_host = "127.0.0.1";
  std::uint16_t worker_port = 0;
  bool want_chart = false;
  bool print_spec = false;
  std::vector<std::string> given;  ///< every flag, for check_flags

  bool spec_overridden = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    given.push_back(arg);
    auto next = [&](int more = 1) {
      if (i + more >= argc) usage(argv[0]);
      return argv[++i];
    };
    // Legacy flags read and write through the same checks as --set, and a
    // rejected value fails the same way: exit 2, one diagnostic line.
    auto number = [&](const char* text) {
      const auto v = util::parse_number(text);
      if (!v) {
        std::cerr << arg << ": value is not a number\n";
        std::exit(2);
      }
      return *v;
    };
    auto set_param = [&](const std::string& key, double value) {
      spec_overridden = true;
      if (const auto err = spec.set_checked(key, value)) {
        std::cerr << arg << ": " << *err << "\n";
        std::exit(2);
      }
    };
    if (arg == "--scenario") {
      if (spec_overridden) {
        // Loading a scenario replaces the whole spec; silently dropping
        // the overrides that came before it would run the wrong market.
        std::cerr << "--scenario must come before --set and other "
                     "parameter flags\n";
        return 64;
      }
      try {
        spec = load_scenario(next());
      } catch (const util::PreconditionError& e) {
        std::cerr << e.what() << "\n";  // malformed spec file
        return 64;
      }
    } else if (arg == "--list-scenarios") {
      for (const auto& name : scenario::ScenarioRegistry::builtin().names()) {
        const auto* s = scenario::ScenarioRegistry::builtin().find(name);
        std::cout << name << "\n    " << s->description << "\n";
      }
      return 0;
    } else if (arg == "--print-spec") {
      print_spec = true;
    } else if (arg == "--set") {
      // Strict value handling: a malformed or out-of-range value is a
      // failed run (exit 2, one diagnostic line), never a silent clamp or
      // an unsigned wrap through the raw setter. Only an unknown key is a
      // usage error.
      const std::string kv = next();
      const auto eq = kv.find('=');
      if (eq == std::string::npos) usage(argv[0]);
      const std::string key = kv.substr(0, eq);
      const auto value = util::parse_number(kv.substr(eq + 1));
      if (!value) {
        std::cerr << "--set " << kv << ": value is not a number\n";
        return 2;
      }
      spec_overridden = true;
      if (const auto err = spec.set_checked(key, *value)) {
        std::cerr << "--set " << kv << ": " << *err << "\n";
        return err->rfind("unknown parameter", 0) == 0 ? 64 : 2;
      }
    } else if (arg == "--sweep") {
      try {
        sweep.axes.push_back(scenario::SweepAxis::parse(next()));
      } catch (const util::PreconditionError& e) {
        // Same contract as --set: one clean diagnostic line, exit 2 for
        // malformed values, 64 for an unknown key (a usage error).
        const std::string msg = e.what();
        std::cerr << "--sweep: " << msg << "\n";
        return msg.rfind("unknown sweep parameter", 0) == 0 ? 64 : 2;
      }
    } else if (arg == "--seeds") {
      sweep.seeds = count_or_usage(next(), argv[0]);
      if (sweep.seeds == 0) usage(argv[0]);
    } else if (arg == "--jobs") {
      cli.jobs = count_or_usage(next(), argv[0]);
    } else if (arg == "--out") {
      cli.out.out_path = next();
    } else if (arg == "--runs-out") {
      cli.out.runs_out_path = next();
    } else if (arg == "--json") {
      cli.out.json = true;
    } else if (arg == "--quiet") {
      cli.quiet = true;
    } else if (arg == "--cache-dir") {
      cli.cache_dir = next();
    } else if (arg == "--shard") {
      parse_shard(next(), cli, argv[0]);
    } else if (arg == "--merge") {
      merge_files.push_back(next());
    } else if (arg == "--serve" || arg == "--coordinator") {
      // Two spellings of coordinator mode: a bare PORT binds every
      // interface, HOST:PORT pins the host (e.g. 127.0.0.1 to stay
      // loopback-only).
      cli.coordinate = true;
      cli.bind_host = "0.0.0.0";
      parse_host_port(next(), cli.bind_host, cli.bind_port, argv[0]);
    } else if (arg == "--worker") {
      worker_mode = true;
      parse_host_port(next(), worker_host, worker_port, argv[0]);
    } else if (arg == "--lease-timeout") {
      cli.lease_timeout = number_or_usage(next(), argv[0]);
      if (!scenario::lease_timeout_ms(cli.lease_timeout)) {
        std::cerr << "--lease-timeout: must round to at least 1 ms and "
                     "below 2^63 ms\n";
        return 64;
      }
    } else if (arg == "--lease-batch") {
      cli.lease_batch = count_or_usage(next(), argv[0]);
      if (cli.lease_batch == 0) usage(argv[0]);
    } else if (arg == "--fsync") {
      cli.fsync = true;
    } else if (arg == "--eta") {
      cli.eta = true;
      cli.out.timing_columns = true;
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--series-out") {
      cli.series_out = next();
    } else if (arg == "--series-every") {
      cli.series_every = count_or_usage(next(), argv[0]);
      if (cli.series_every == 0) usage(argv[0]);
    } else if (arg == "--status-port") {
      const std::size_t p = count_or_usage(next(), argv[0]);
      if (p > 65535) usage(argv[0]);
      cli.status_port = static_cast<int>(p);
    } else if (arg == "--peers") {
      const double v = number(next());
      set_param("peers", v);
      set_param("max_peers", v);
    } else if (arg == "--credits") {
      set_param("credits", number(next()));
    } else if (arg == "--horizon") {
      const double h = number(next());
      set_param("horizon", h);
      set_param("snapshot_interval", h / 40.0);
    } else if (arg == "--seed") {
      set_param("seed", number(next()));
    } else if (arg == "--pricing") {
      const std::string name = next();
      double kind = -1;
      if (name == "uniform") kind = 0;
      else if (name == "poisson") kind = 1;
      else if (name == "perseller") kind = 2;
      else if (name == "linear") kind = 3;
      else usage(argv[0]);
      set_param("pricing.kind", kind);
    } else if (arg == "--spend-cv") {
      set_param("spend_cv", number(next()));
    } else if (arg == "--upload-cv") {
      set_param("upload_cv", number(next()));
    } else if (arg == "--tax") {
      set_param("tax.enabled", 1);
      set_param("tax.rate", number(next(2)));
      set_param("tax.threshold", number(next()));
    } else if (arg == "--dynamic") {
      set_param("spending.dynamic", 1);
      set_param("spending.threshold", number(next()));
    } else if (arg == "--churn") {
      set_param("churn.enabled", 1);
      set_param("churn.arrival_rate", number(next(2)));
      set_param("churn.mean_lifespan", number(next()));
      set_param("max_peers",
                static_cast<double>(
                    spec.config.protocol.initial_peers * 2 + 256));
    } else if (arg == "--inject") {
      set_param("inject.enabled", 1);
      set_param("inject.interval", number(next(2)));
      set_param("inject.amount", number(next()));
    } else if (arg == "--condensed") {
      set_param("upload_capacity", 8.0);
      set_param("seller_choice", 1);
      set_param("reserve_credits", 0.0);
      set_param("deficit_seeding", 0);
      set_param("pricing.kind", 1);
    } else if (arg == "--trace") {
      set_param("trace", 1);
    } else if (arg == "--chart") {
      want_chart = true;
    } else {
      usage(argv[0]);
    }
  }

  if (print_spec) {
    std::cout << spec.serialize();
    return 0;
  }

  const bool sweeping = !sweep.axes.empty() || sweep.seeds > 1;
  const Mode mode = worker_mode            ? kWorker
                    : !merge_files.empty() ? kMerge
                    : cli.coordinate       ? kServe
                    : cli.sharded          ? kShard
                    : sweeping             ? kSweep
                                           : kSingle;
  if (const int rc = check_flags(given, mode); rc != 0) return rc;

  // Tracing switches on before any simulation and is dumped by the guard on
  // every exit path below. It records wall-clock spans only — no RNG, no
  // report bytes — so traced outputs stay byte-identical.
  TraceDump trace_dump;
  if (!trace_out.empty()) {
    util::Tracer::instance().enable();
    trace_dump.path = trace_out;
  }

  if (mode == kWorker) {
    return run_worker_mode(worker_host, worker_port, cli.jobs, cli.quiet);
  }

  if (mode == kMerge) {
    try {
      return run_merge(merge_files, cli.out);
    } catch (const util::PreconditionError& e) {
      std::cerr << e.what() << "\n";  // unreadable/malformed record file
      return 64;
    }
  }

  if (mode != kSingle) {
    try {
      return run_sweep(spec, std::move(sweep), cli);
    } catch (const util::SocketError& e) {
      std::cerr << e.what() << "\n";
      return 1;
    } catch (const util::PreconditionError& e) {
      // A coordinator's is a usage error: a lease timeout no worker can
      // use. A local sweep's is a failed sweep, exit 2 as for a bad --sweep
      // value: a grid with more runs than size_t counts, for one.
      std::cerr << e.what() << "\n";
      return mode == kServe ? 64 : 2;
    }
  }

  // ---- Single-run mode (the original market_cli behavior). --------------
  // A configuration the market rejects (CF_EXPECTS in the constructors) is
  // a failed run: one diagnostic line and exit 2, not an uncaught throw.
  try {
    return run_single(spec, cli, want_chart);
  } catch (const std::exception& e) {
    std::cerr << "run failed: " << e.what() << "\n";
    return 2;
  }
}

namespace {

int run_single(const creditflow::scenario::ScenarioSpec& spec,
               const SweepCliOptions& cli, bool want_chart) {
  using namespace creditflow;
  core::MarketConfig run_cfg = spec.materialize();
  if (!cli.series_out.empty()) {
    run_cfg.series_every_rounds = cli.series_every;
  }
  core::CreditMarket market(std::move(run_cfg));
  const auto report = market.run();
  const auto& cfg = market.config();

  if (market.series() != nullptr) {
    if (!write_file(cli.series_out, market.series()->csv())) return 2;
    std::cerr << "[series] " << cli.series_out << " ("
              << market.series()->rows().size() << " rows)\n";
  }

  // When the series CSV streams to stdout, the human-readable report moves
  // to stderr so the stream stays machine-clean.
  std::ostream& human = cli.series_out == "-" ? std::cerr : std::cout;

  human << "== market report ==\n"
        << report.summary() << "\n"
        << "final wealth: mean=" << report.final_wealth.mean
        << " median=" << report.final_wealth.median
        << " gini=" << report.final_wealth.gini
        << " top10=" << report.final_wealth.top10_share
        << " bankrupt=" << report.final_wealth.bankrupt_fraction << "\n"
        << "buffer fill: " << report.mean_buffer_fill.last_value()
        << "  alive peers: " << report.alive_peers.last_value() << "\n";
  if (cfg.protocol.tax.enabled) {
    human << "tax: collected=" << report.tax_collected
          << " redistributed=" << report.tax_redistributed << "\n";
  }
  if (cfg.protocol.churn.enabled) {
    human << "churn: arrivals=" << report.counter("churn.arrivals")
          << " departures=" << report.counter("churn.departures") << "\n";
  }
  if (cfg.protocol.market_mode ==
      p2p::ProtocolConfig::MarketMode::kOrderBook) {
    // best_ask_stops: buyer walks that ended at the book's cheapest ask.
    human << "order book: fills=" << report.counter("book.fills")
          << " asks_expired=" << report.counter("book.asks_expired")
          << " best_ask_stops=" << report.counter("purchase.best_ask_stops")
          << "\n";
  }

  if (want_chart && !report.gini_balances.empty()) {
    util::ChartOptions opts;
    opts.title = "Gini of balances over time";
    human << "\n"
          << util::render_chart({{"gini", &report.gini_balances}}, opts);
  }

  if (cfg.enable_trace) {
    const auto verdict = core::analyze_market(market.empirical_mapping());
    human << "\n== sustainability verdict ==\n"
          << "equilibrium exists: "
          << (verdict.equilibrium_exists ? "yes" : "no")
          << " (residual " << verdict.equilibrium_residual << ")\n"
          << "utilization symmetric: "
          << (verdict.symmetric_utilization ? "yes" : "no") << "\n"
          << "threshold T: "
          << (verdict.condensation.threshold_finite
                  ? std::to_string(verdict.condensation.threshold)
                  : std::string("+inf"))
          << "  c=" << verdict.condensation.average_wealth << "\n"
          << "condensation predicted: "
          << (verdict.condensation.condensation_predicted ? "YES" : "no")
          << "\n"
          << "model equilibrium gini: " << verdict.predicted_gini
          << "  efficiency exact/eq9: " << verdict.efficiency_exact
          << "/" << verdict.efficiency_eq9 << "\n";
  }
  return report.ledger_conserved ? 0 : 2;
}

}  // namespace
