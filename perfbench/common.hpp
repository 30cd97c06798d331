// perfbench: helpers shared by the benchmark program and its self-tests —
// output digests, percentiles, process memory readouts and the span log
// that records one span per call the benchmark makes into the program.
//
// Header-only and independent of the simulator library, so the self-test
// binary checks these helpers without building a market.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// 64-bit FNV-1a, fed incrementally. Values are hashed by their object
/// bytes, so a digest is only comparable between builds for one platform.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  void text(std::string_view s) { bytes(s.data(), s.size()); }
  template <typename T>
  void value(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof v);
  }
  [[nodiscard]] std::uint64_t digest() const { return hash_; }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// The q-quantile (q in [0, 1]) of `values`, interpolating linearly between
/// the two closest ranks (rank q·(n−1), the spreadsheet PERCENTILE.INC
/// rule). NaN for an empty sample.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// A "Vm...:" line of /proc/self/status, in bytes (0 when absent).
inline double proc_status_bytes(std::string_view key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      return std::strtod(line.c_str() + key.size() + 1, nullptr) * 1024.0;
    }
  }
  return 0.0;
}

/// Peak resident set size of this process image, in bytes. VmHWM starts
/// afresh at exec, unlike getrusage's ru_maxrss, which keeps the parent's
/// high-water mark when the process was spawned from a larger one.
inline double peak_rss_bytes() { return proc_status_bytes("VmHWM"); }

/// Current resident set size of this process, in bytes.
inline double current_rss_bytes() { return proc_status_bytes("VmRSS"); }

constexpr double kMiB = 1024.0 * 1024.0;

/// Shortest text that reads back as exactly `v` (17 significant digits).
inline std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One call the benchmark made into the program: what was called, when,
/// which span caused it, and the round or run it belongs to.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;  ///< round or run the span belongs to (0: none)
  int parent = -1;       ///< index of the enclosing span, -1 for a root
  double start_us = 0.0;
  double end_us = 0.0;
  std::string args;      ///< extra JSON members ("\"k\":v,..."), may be empty
};

/// In-memory span recorder. Spans nest by call order: begin() makes the
/// innermost open span the parent. Disabled, it records nothing and reads
/// no clock, so the untraced run pays one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span; children inherit `id` when it is 0. Returns its index,
  /// or -1 when disabled.
  int begin(const char* name, std::uint64_t id = 0) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.id = id != 0 || span.parent < 0 ? id : spans_[span.parent].id;
    span.start_us = now_us();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  /// Close the span `index` (the innermost open one).
  void end(int index, std::string args = {}) {
    if (index < 0) return;
    spans_[index].end_us = now_us();
    spans_[index].args = std::move(args);
    open_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON (loads in Perfetto and chrome://tracing):
  /// one complete ("X") event per span, with `other_data` (a JSON object)
  /// stored under "otherData".
  [[nodiscard]] std::string chrome_json(std::string_view other_data) const {
    std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":";
    out += other_data;
    out += ",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out += ",\n";
      out += "{\"name\":\"";
      out += s.name;
      out += "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":";
      out += number(s.start_us);
      out += ",\"dur\":";
      out += number(s.end_us - s.start_us);
      out += ",\"args\":{\"span\":" + std::to_string(i) +
             ",\"parent\":" + std::to_string(s.parent) +
             ",\"id\":" + std::to_string(s.id);
      if (!s.args.empty()) out += "," + s.args;
      out += "}}";
    }
    out += "]}\n";
    return out;
  }

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t id = 0)
      : log_(log), index_(log.begin(name, id)) {}
  ~ScopedSpan() { log_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

/// Aggregate of all spans that share one call path (names from the root).
struct LayerRow {
  std::string path;
  int depth = 0;
  std::size_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  ///< total minus the time its child spans cover
};

/// Fold spans by call path, in order of first appearance.
inline std::vector<LayerRow> layer_rows(const std::vector<Span>& spans) {
  std::vector<std::string> paths(spans.size());
  std::vector<double> child_us(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent >= 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  std::vector<LayerRow> rows;
  std::map<std::string, std::size_t> row_of;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    paths[i] = s.parent >= 0 ? paths[s.parent] + "/" + s.name : s.name;
    auto [it, inserted] = row_of.emplace(paths[i], rows.size());
    if (inserted) {
      LayerRow row;
      row.path = paths[i];
      row.depth = static_cast<int>(std::count(paths[i].begin(),
                                              paths[i].end(), '/'));
      rows.push_back(row);
    }
    LayerRow& row = rows[it->second];
    const double dur_us = s.end_us - s.start_us;
    ++row.calls;
    row.total_ms += dur_us / 1e3;
    row.self_ms += (dur_us - child_us[i]) / 1e3;
  }
  return rows;
}

}  // namespace perfbench
