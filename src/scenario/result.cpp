#include "scenario/result.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "scenario/store.hpp"  // json_escape
#include "util/assert.hpp"
#include "util/math.hpp"

namespace creditflow::scenario {

namespace {

using util::csv_escape;
using util::format_double;

}  // namespace

void ResultSink::add(RunResult result) {
  const std::size_t run = result.run_index;
  CF_EXPECTS_MSG(!have_run_.contains(run),
                 "duplicate result for run " + std::to_string(run));
  std::size_t& held = point_runs_[result.point_index];
  CF_EXPECTS_MSG(expected_replications_ == 0 || held < expected_replications_,
                 "run arrived for a grid point that already received its "
                 "declared replication count");
  have_run_.insert(run);
  ++held;
  // Run-index order is restored lazily (ensure_sorted) so the renderings
  // never depend on completion order, while adds stay O(1) even for
  // interleaved shard merges.
  if (!runs_.empty() && run < runs_.back().run_index) sorted_ = false;
  runs_.push_back(std::move(result));
}

void ResultSink::add_all(std::vector<RunResult> results) {
  for (auto& r : results) add(std::move(r));
}

const std::vector<RunResult>& ResultSink::runs() const {
  ensure_sorted();
  return runs_;
}

void ResultSink::ensure_sorted() const {
  if (sorted_) return;
  std::stable_sort(runs_.begin(), runs_.end(),
                   [](const RunResult& a, const RunResult& b) {
                     return a.run_index < b.run_index;
                   });
  sorted_ = true;
}

std::vector<AggregateRow> ResultSink::aggregate() const {
  ensure_sorted();
  std::vector<AggregateRow> rows;
  for (const RunResult& run : runs_) {
    if (rows.empty() || rows.back().point_index != run.point_index) {
      AggregateRow row;
      row.point_index = run.point_index;
      row.params = run.params;
      rows.push_back(std::move(row));
    }
    AggregateRow& row = rows.back();
    if (!run.error.empty()) {
      ++row.failures;
      row.errors.push_back(run.error);
      continue;
    }
    ++row.seeds;
    if (row.metrics.empty()) {
      for (const auto& [name, value] : run.metrics) {
        MetricStat stat;
        stat.mean = value;  // temporarily the running sum
        stat.n = 1;
        row.metrics.emplace_back(name, stat);
      }
      continue;
    }
    CF_EXPECTS_MSG(row.metrics.size() == run.metrics.size(),
                   "runs of one grid point disagree on their metric set");
    for (std::size_t k = 0; k < run.metrics.size(); ++k) {
      row.metrics[k].second.mean += run.metrics[k].second;
      ++row.metrics[k].second.n;
    }
  }

  // Finalize: sums → means, then a second pass for the spread. Runs are
  // kept sorted by run_index, so each row's runs occupy one contiguous
  // slice of runs_ — the spread pass walks runs_ exactly once overall.
  for (AggregateRow& row : rows) {
    for (auto& [name, stat] : row.metrics) {
      stat.mean /= static_cast<double>(stat.n);
    }
  }
  std::size_t cursor = 0;
  for (AggregateRow& row : rows) {
    const std::size_t begin = cursor;
    while (cursor < runs_.size() &&
           runs_[cursor].point_index == row.point_index) {
      ++cursor;
    }
    if (row.seeds < 2) continue;
    for (std::size_t k = 0; k < row.metrics.size(); ++k) {
      double sq = 0.0;
      for (std::size_t i = begin; i < cursor; ++i) {
        if (!runs_[i].error.empty()) continue;
        const double d =
            runs_[i].metrics[k].second - row.metrics[k].second.mean;
        sq += d * d;
      }
      MetricStat& stat = row.metrics[k].second;
      stat.stddev = std::sqrt(sq / static_cast<double>(stat.n - 1));
      stat.ci95 = 1.96 * stat.stddev / std::sqrt(static_cast<double>(stat.n));
    }
  }
  return rows;
}

std::string ResultSink::runs_csv() const {
  ensure_sorted();
  // Metric columns come from the first successful run (errored runs carry
  // no metrics and are padded to the same width).
  const RunResult* proto = nullptr;
  for (const RunResult& run : runs_) {
    if (run.error.empty()) {
      proto = &run;
      break;
    }
  }
  const std::size_t metric_cols = proto ? proto->metrics.size() : 0;

  std::ostringstream out;
  out << "run_index,point_index,seed_index,seed";
  if (!runs_.empty()) {
    for (const auto& [name, value] : runs_.front().params) {
      out << ',' << csv_escape(name);
    }
    if (proto) {
      for (const auto& [name, value] : proto->metrics) {
        out << ',' << csv_escape(name);
      }
    }
    out << ",error,rounds";
    if (timing_columns_) {
      out << ",wall_seconds,purchase_phase_seconds,seed_phase_seconds"
             ",tax_phase_seconds,peak_rss_bytes";
    }
  }
  out << '\n';
  for (const RunResult& run : runs_) {
    out << run.run_index << ',' << run.point_index << ',' << run.seed_index
        << ',' << run.seed;
    for (const auto& [name, value] : run.params) {
      out << ',' << format_double(value);
    }
    if (run.error.empty()) {
      for (const auto& [name, value] : run.metrics) {
        out << ',' << format_double(value);
      }
      out << ',';
    } else {
      for (std::size_t k = 0; k < metric_cols; ++k) out << ',';
      out << ',' << csv_escape(run.error);
    }
    out << ',' << run.telemetry.rounds;
    if (timing_columns_) {
      out << ',' << format_double(run.telemetry.wall_seconds) << ','
          << format_double(run.telemetry.purchase_phase_seconds) << ','
          << format_double(run.telemetry.seed_phase_seconds) << ','
          << format_double(run.telemetry.tax_phase_seconds) << ','
          << run.telemetry.peak_rss_bytes;
    }
    out << '\n';
  }
  return out.str();
}

std::string ResultSink::aggregate_csv() const {
  const auto rows = aggregate();
  // Metric columns come from the first row that has any successful runs
  // (an all-failed grid point carries no metrics and is padded instead).
  const AggregateRow* proto = nullptr;
  for (const AggregateRow& row : rows) {
    if (!row.metrics.empty()) {
      proto = &row;
      break;
    }
  }

  std::ostringstream out;
  out << "point_index";
  if (!rows.empty()) {
    for (const auto& [name, value] : rows.front().params) {
      out << ',' << csv_escape(name);
    }
    out << ",seeds,failures";
    if (proto) {
      for (const auto& [name, stat] : proto->metrics) {
        out << ',' << csv_escape(name) << "_mean," << csv_escape(name)
            << "_sd," << csv_escape(name) << "_ci95";
      }
    }
  }
  out << '\n';
  for (const AggregateRow& row : rows) {
    out << row.point_index;
    for (const auto& [name, value] : row.params) {
      out << ',' << format_double(value);
    }
    out << ',' << row.seeds << ',' << row.failures;
    if (row.metrics.empty()) {
      const std::size_t cols = proto ? proto->metrics.size() * 3 : 0;
      for (std::size_t k = 0; k < cols; ++k) out << ',';
    } else {
      for (const auto& [name, stat] : row.metrics) {
        out << ',' << format_double(stat.mean) << ','
            << format_double(stat.stddev) << ',' << format_double(stat.ci95);
      }
    }
    out << '\n';
  }
  return out.str();
}

std::string ResultSink::aggregate_json() const {
  const auto rows = aggregate();
  std::ostringstream out;
  out << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const AggregateRow& row = rows[i];
    out << "  {\"point_index\": " << row.point_index << ", \"params\": {";
    for (std::size_t k = 0; k < row.params.size(); ++k) {
      if (k > 0) out << ", ";
      out << '"' << json_escape(row.params[k].first)
          << "\": " << format_double(row.params[k].second);
    }
    out << "}, \"seeds\": " << row.seeds
        << ", \"failures\": " << row.failures << ", \"errors\": [";
    for (std::size_t k = 0; k < row.errors.size(); ++k) {
      if (k > 0) out << ", ";
      out << '"' << json_escape(row.errors[k]) << '"';
    }
    out << "], \"metrics\": {";
    for (std::size_t k = 0; k < row.metrics.size(); ++k) {
      const auto& [name, stat] = row.metrics[k];
      if (k > 0) out << ", ";
      // NaN (e.g. a windowed metric with no rate window) → JSON null.
      const auto number = [](double v) {
        const std::string s = format_double(v);
        return s == "nan" ? std::string("null") : s;
      };
      out << '"' << json_escape(name)
          << "\": {\"mean\": " << number(stat.mean)
          << ", \"sd\": " << number(stat.stddev)
          << ", \"ci95\": " << number(stat.ci95) << '}';
    }
    out << "}}" << (i + 1 < rows.size() ? "," : "") << '\n';
  }
  out << "]\n";
  return out.str();
}

util::ConsoleTable ResultSink::aggregate_table(
    const std::string& title,
    std::span<const std::string> metric_names) const {
  const auto rows = aggregate();
  util::ConsoleTable table(title);
  std::vector<std::string> header;
  if (!rows.empty()) {
    for (const auto& [name, value] : rows.front().params) {
      header.push_back(name);
    }
  }
  header.emplace_back("seeds");
  for (const auto& name : metric_names) header.push_back(name);
  table.set_header(std::move(header));

  for (const AggregateRow& row : rows) {
    std::vector<util::Cell> cells;
    for (const auto& [name, value] : row.params) cells.emplace_back(value);
    cells.emplace_back(static_cast<std::int64_t>(row.seeds));
    for (const auto& wanted : metric_names) {
      // A grid point whose runs all failed has no metrics at all — render
      // it as "failed" rather than rejecting the whole table.
      if (row.metrics.empty()) {
        cells.emplace_back(std::string("failed"));
        continue;
      }
      const auto it = std::find_if(
          row.metrics.begin(), row.metrics.end(),
          [&](const auto& entry) { return entry.first == wanted; });
      CF_EXPECTS_MSG(it != row.metrics.end(),
                     "unknown metric in aggregate_table: " + wanted);
      if (row.seeds > 1) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.4f ±%.4f", it->second.mean,
                      it->second.ci95);
        cells.emplace_back(std::string(buf));
      } else {
        cells.emplace_back(it->second.mean);
      }
    }
    table.add_row(std::move(cells));
  }
  return table;
}

}  // namespace creditflow::scenario
