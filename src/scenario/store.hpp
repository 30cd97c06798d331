// CreditFlow scenario engine: RunStore — the on-disk, content-addressed
// run cache, and the line-oriented run-record format it shares with
// shard-and-merge.
//
// Each completed run serializes to one self-contained JSONL line carrying
// its RunKey, plan metadata, scalar metrics, and telemetry (full
// MarketReports are deliberately not stored — the cache is for
// metrics-only sweeps). Doubles are rendered in the engine's shortest
// round-trip form (NaN as null), so a metric read back from disk is
// bit-identical to the one computed — the warm-cache and shard-merge
// byte-identical-output guarantees rest on that.
//
// The same record format is the interchange for distributed sweeps: a
// shard writes its partial result set as records, and a later merge
// invocation parses any number of record files back into RunResults.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "scenario/executor.hpp"
#include "scenario/plan.hpp"
#include "util/fsio.hpp"

namespace creditflow::scenario {

/// Escape a string for embedding in a JSON double-quoted literal. Shared
/// by the run-record format and ResultSink::aggregate_json, so error
/// messages and parameter and metric names render with identical bytes
/// in both.
[[nodiscard]] std::string json_escape(const std::string& s);

/// A double as a JSON number: the engine's shortest round-trip form, and
/// `null` for NaN (`nan` is not JSON). Shared by the run-record, status and
/// aggregate writers.
[[nodiscard]] std::string json_number(double v);

/// The one reader of the engine's JSONL lines — run records and journal
/// events: a cursor over one line of objects whose members are strings,
/// numbers or nested objects. Not a general JSON parser, exactly the subset
/// the writers emit. Every error throws util::PreconditionError; `text`
/// must outlive the parser.
class RecordParser {
 public:
  explicit RecordParser(const std::string& text) : text_(text) {}

  /// Walk one object: f(name) runs with the cursor on each member's value
  /// and must consume it (a parse_* call or a nested members()).
  template <typename F>
  void members(F&& f) {
    expect('{');
    if (consume('}')) return;
    do {
      const std::string name = parse_string();
      expect(':');
      f(name);
    } while (consume(','));
    expect('}');
  }

  [[nodiscard]] std::string parse_string();
  /// A number; `null`, and the `nan` of records written before NaN was
  /// `null`, read as NaN.
  [[nodiscard]] double parse_number();
  /// Digits only, within 64 bits.
  [[nodiscard]] std::uint64_t parse_u64();
  /// Throws unless nothing but blanks is left: a line holds one object, so
  /// a torn or run-together line never parses.
  void finish();

 private:
  void expect(char c);
  [[nodiscard]] bool consume(char c);
  void skip_ws();

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// One persisted run: its content address plus the (report-free) result.
struct RunRecord {
  RunKey key;
  RunResult result;
};

/// One record as a single JSONL line (no trailing newline).
[[nodiscard]] std::string serialize_run_record(const RunKey& key,
                                               const RunResult& result);
/// Inverse of serialize_run_record; throws util::PreconditionError on
/// malformed input.
[[nodiscard]] RunRecord parse_run_record(const std::string& line);

/// Parse every record in a file (one per line, blank lines skipped).
/// Throws util::PreconditionError if the file is unreadable or any line is
/// malformed; a malformed line's message starts with `<path>:<line>: `.
[[nodiscard]] std::vector<RunRecord> read_run_records(
    const std::string& path);

/// Append-only run cache rooted at a directory. Construction creates the
/// directory (if needed) and loads `runs.jsonl`; put() appends one line per
/// new key, so a store can be grown by any number of sequential sweep
/// invocations and survives process restarts. Only successful runs are
/// stored: errors are cheap to recompute and must not outlive the code
/// that produced them.
///
/// Robustness: loading skips (and warns about) malformed lines — a
/// truncated tail from a killed writer costs one recomputed run, never the
/// store; the next append repairs the missing terminator first. Records are
/// appended in a single write each, so concurrent executors sharing a store
/// directory interleave at record boundaries; duplicate keys from that race
/// carry identical bytes and dedup on load (first wins).
class RunStore {
 public:
  struct Options {
    /// fsync(2) after every appended record. Off by default — a flushed
    /// O_APPEND write already survives any process kill; fsync upgrades
    /// that to surviving a machine crash, at per-record fsync cost.
    /// Sweep-farm deployments that rely on the cache + journal for
    /// crash recovery turn this on via --fsync.
    bool fsync = false;
  };

  explicit RunStore(std::string dir);
  RunStore(std::string dir, Options options);

  /// The backing JSONL file.
  [[nodiscard]] const std::string& path() const { return path_; }
  /// Cached runs currently known.
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// The stored result for `key`, or nullptr. The result carries the
  /// metadata of the run that first computed it; callers re-label it with
  /// the current plan's metadata (indices can legitimately differ once a
  /// grid has been widened).
  [[nodiscard]] const RunResult* find(const RunKey& key) const;

  /// Persist a successful run under `key`; no-op if the key is already
  /// present or the result carries an error.
  void put(const RunKey& key, const RunResult& result);

 private:
  std::string dir_;
  std::string path_;
  Options options_;
  std::map<RunKey, RunResult> entries_;
  /// Lazily-opened append log, kept open across put()s (each record is a
  /// single write, so a crash loses at most the in-flight line; torn-tail
  /// repair lives in AppendFile).
  util::AppendFile append_;
};

}  // namespace creditflow::scenario
