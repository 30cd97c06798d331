#include "scenario/store.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/assert.hpp"
#include "util/logging.hpp"
#include "util/math.hpp"

namespace creditflow::scenario {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

/// Minimal cursor parser for the record grammar this file emits: objects
/// of string keys mapping to numbers, strings, or nested objects. Not a
/// general JSON parser — exactly the subset serialize_run_record writes.
class RecordParser {
 public:
  explicit RecordParser(const std::string& text) : text_(text) {}

  void expect(char c) {
    skip_ws();
    CF_EXPECTS_MSG(pos_ < text_.size() && text_[pos_] == c,
                   "run record: expected '" + std::string(1, c) +
                       "' at offset " + std::to_string(pos_));
    ++pos_;
  }

  [[nodiscard]] bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      CF_EXPECTS_MSG(pos_ < text_.size(), "run record: unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      CF_EXPECTS_MSG(pos_ < text_.size(), "run record: dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          CF_EXPECTS_MSG(pos_ + 4 <= text_.size(),
                         "run record: short \\u escape");
          const std::string hex = text_.substr(pos_, 4);
          CF_EXPECTS_MSG(hex.find_first_not_of("0123456789abcdefABCDEF") ==
                             std::string::npos,
                         "run record: non-hex \\u escape");
          pos_ += 4;
          out += static_cast<char>(std::strtoul(hex.c_str(), nullptr, 16));
          break;
        }
        default:
          CF_EXPECTS_MSG(false, "run record: unknown escape");
      }
    }
  }

  [[nodiscard]] double parse_number() {
    skip_ws();
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    CF_EXPECTS_MSG(end != begin, "run record: expected a number at offset " +
                                     std::to_string(pos_));
    pos_ += static_cast<std::size_t>(end - begin);
    return v;
  }

  [[nodiscard]] std::uint64_t parse_u64() {
    skip_ws();
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    // Digits only, and no ERANGE saturation: strtoull silently wraps a
    // leading minus and clamps overflow to 2^64 - 1.
    errno = 0;
    const std::uint64_t v = std::strtoull(begin, &end, 10);
    CF_EXPECTS_MSG(*begin >= '0' && *begin <= '9' && errno != ERANGE,
                   "run record: expected an integer at offset " +
                       std::to_string(pos_));
    pos_ += static_cast<std::size_t>(end - begin);
    return v;
  }

  /// {"k": number, ...} in emission order.
  [[nodiscard]] std::vector<std::pair<std::string, double>>
  parse_number_object() {
    std::vector<std::pair<std::string, double>> out;
    expect('{');
    if (consume('}')) return out;
    do {
      std::string key = parse_string();
      expect(':');
      out.emplace_back(std::move(key), parse_number());
    } while (consume(','));
    expect('}');
    return out;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
};

void append_number_object(
    std::ostringstream& out,
    const std::vector<std::pair<std::string, double>>& entries) {
  out << '{';
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out << ',';
    out << '"' << json_escape(entries[i].first)
        << "\":" << util::format_double(entries[i].second);
  }
  out << '}';
}

}  // namespace

std::string serialize_run_record(const RunKey& key, const RunResult& r) {
  std::ostringstream out;
  out << "{\"key\":\"" << key.hex() << "\",\"run_index\":" << r.run_index
      << ",\"point_index\":" << r.point_index
      << ",\"seed_index\":" << r.seed_index << ",\"seed\":" << r.seed
      << ",\"params\":";
  append_number_object(out, r.params);
  out << ",\"metrics\":";
  append_number_object(out, r.metrics);
  out << ",\"telemetry\":{\"wall_seconds\":"
      << util::format_double(r.telemetry.wall_seconds)
      << ",\"purchase_phase_seconds\":"
      << util::format_double(r.telemetry.purchase_phase_seconds)
      << ",\"seed_phase_seconds\":"
      << util::format_double(r.telemetry.seed_phase_seconds)
      << ",\"tax_phase_seconds\":"
      << util::format_double(r.telemetry.tax_phase_seconds)
      << ",\"rounds\":" << r.telemetry.rounds
      << ",\"peak_rss_bytes\":" << r.telemetry.peak_rss_bytes
      << ",\"overlay_edges_dropped\":" << r.telemetry.overlay_edges_dropped
      << ",\"churn_arrivals_dropped\":" << r.telemetry.churn_arrivals_dropped
      << "},\"error\":\"" << json_escape(r.error) << "\"}";
  return out.str();
}

RunRecord parse_run_record(const std::string& line) {
  RecordParser p(line);
  RunRecord record;
  p.expect('{');
  bool first = true;
  while (true) {
    if (first ? p.consume('}') : !p.consume(',')) break;
    first = false;
    const std::string field = p.parse_string();
    p.expect(':');
    if (field == "key") {
      const auto key = RunKey::from_hex(p.parse_string());
      CF_EXPECTS_MSG(key.has_value(), "run record: malformed key");
      record.key = *key;
    } else if (field == "run_index") {
      record.result.run_index = static_cast<std::size_t>(p.parse_u64());
    } else if (field == "point_index") {
      record.result.point_index = static_cast<std::size_t>(p.parse_u64());
    } else if (field == "seed_index") {
      record.result.seed_index = static_cast<std::size_t>(p.parse_u64());
    } else if (field == "seed") {
      record.result.seed = p.parse_u64();
    } else if (field == "params") {
      record.result.params = p.parse_number_object();
    } else if (field == "metrics") {
      record.result.metrics = p.parse_number_object();
    } else if (field == "telemetry") {
      p.expect('{');
      bool t_first = true;
      while (true) {
        if (t_first ? p.consume('}') : !p.consume(',')) break;
        t_first = false;
        const std::string t_field = p.parse_string();
        p.expect(':');
        if (t_field == "wall_seconds") {
          record.result.telemetry.wall_seconds = p.parse_number();
        } else if (t_field == "purchase_phase_seconds") {
          record.result.telemetry.purchase_phase_seconds = p.parse_number();
        } else if (t_field == "seed_phase_seconds") {
          // The per-phase breakdown fields are absent from records written
          // before it existed; such runs read back with the zero default.
          record.result.telemetry.seed_phase_seconds = p.parse_number();
        } else if (t_field == "tax_phase_seconds") {
          record.result.telemetry.tax_phase_seconds = p.parse_number();
        } else if (t_field == "rounds") {
          record.result.telemetry.rounds = p.parse_u64();
        } else if (t_field == "peak_rss_bytes") {
          // Absent from records written before peak-RSS telemetry existed;
          // such runs read back with the field's zero default.
          record.result.telemetry.peak_rss_bytes = p.parse_u64();
        } else if (t_field == "overlay_edges_dropped") {
          // Pool-exhaustion counters (absent pre-PR-8, read back as 0).
          record.result.telemetry.overlay_edges_dropped = p.parse_u64();
        } else if (t_field == "churn_arrivals_dropped") {
          record.result.telemetry.churn_arrivals_dropped = p.parse_u64();
        } else {
          CF_EXPECTS_MSG(false, "run record: unknown telemetry field " +
                                    t_field);
        }
      }
      if (!t_first) p.expect('}');
    } else if (field == "error") {
      record.result.error = p.parse_string();
    } else {
      CF_EXPECTS_MSG(false, "run record: unknown field " + field);
    }
  }
  if (!first) p.expect('}');
  return record;
}

std::vector<RunRecord> read_run_records(const std::string& path) {
  std::ifstream in(path);
  CF_EXPECTS_MSG(in.good(), "cannot read run records from " + path);
  std::vector<RunRecord> records;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    try {
      records.push_back(parse_run_record(line));
    } catch (const util::PreconditionError& e) {
      // A merge reads many shard files: say which file and line is bad.
      throw util::PreconditionError(path + ":" + std::to_string(line_number) +
                                    ": " + e.what());
    }
  }
  return records;
}

RunStore::RunStore(std::string dir) : RunStore(std::move(dir), Options{}) {}

RunStore::RunStore(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options) {
  CF_EXPECTS_MSG(!dir_.empty(), "run store directory must be non-empty");
  std::filesystem::create_directories(dir_);
  path_ = (std::filesystem::path(dir_) / "runs.jsonl").string();
  if (!std::filesystem::exists(path_)) return;

  // Lenient load, unlike the strict read_run_records used by --merge: a
  // cache can carry a truncated or corrupted trailing line (a writer
  // killed mid-append, a torn concurrent write), and that must cost one
  // warning and one recomputed run — never the whole store, and never a
  // crash. The key map dedups, so a torn duplicate can't double-count.
  std::ifstream in(path_);
  CF_EXPECTS_MSG(in.good(), "cannot read run store " + path_);
  std::string line;
  std::size_t line_number = 0;
  std::size_t skipped = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    try {
      RunRecord record = parse_run_record(line);
      // First write wins: concurrent executors may append the same key;
      // every copy of a key carries identical bytes, so either choice
      // agrees.
      entries_.emplace(record.key, std::move(record.result));
    } catch (const std::exception& e) {
      ++skipped;
      CF_LOG_WARN("run store " << path_ << ": skipping malformed line "
                               << line_number << " (" << e.what() << ")");
    }
  }
  if (skipped > 0) {
    CF_LOG_WARN("run store " << path_ << ": " << skipped
                             << " malformed line(s) ignored; those runs "
                                "will be recomputed");
  }
}

const RunResult* RunStore::find(const RunKey& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

void RunStore::put(const RunKey& key, const RunResult& result) {
  if (!result.error.empty()) return;
  if (entries_.find(key) != entries_.end()) return;

  // One single-write record per append (O_APPEND semantics), so concurrent
  // executors appending to a shared store interleave at record boundaries,
  // not mid-line; AppendFile repairs a torn tail left by a killed writer
  // before the first fresh record, and fsyncs per record when the store was
  // opened durable.
  if (!append_.is_open()) append_.open(path_, options_.fsync);
  append_.append_record(serialize_run_record(key, result));

  RunResult stored = result;
  stored.report = core::MarketReport{};  // the store never holds reports
  entries_.emplace(key, std::move(stored));
}

}  // namespace creditflow::scenario
