#include "scenario/store.hpp"

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
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

std::string json_number(double v) {
  return std::isnan(v) ? "null" : util::format_double(v);
}

namespace {

/// The reader of a run-record line: a cursor over one line of objects
/// whose members are strings, numbers or nested objects. Not a general
/// JSON parser, exactly the subset the writer emits. Every error throws
/// util::PreconditionError; `text` must outlive the parser.
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

void RecordParser::expect(char c) {
  skip_ws();
  CF_EXPECTS_MSG(pos_ < text_.size() && text_[pos_] == c,
                 "expected '" + std::string(1, c) + "' at offset " +
                     std::to_string(pos_));
  ++pos_;
}

bool RecordParser::consume(char c) {
  skip_ws();
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

std::string RecordParser::parse_string() {
  expect('"');
  std::string out;
  while (true) {
    CF_EXPECTS_MSG(pos_ < text_.size(), "unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return out;
    if (c != '\\') {
      out += c;
      continue;
    }
    CF_EXPECTS_MSG(pos_ < text_.size(), "dangling escape");
    const char esc = text_[pos_++];
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        CF_EXPECTS_MSG(pos_ + 4 <= text_.size(), "short \\u escape");
        const std::string hex = text_.substr(pos_, 4);
        CF_EXPECTS_MSG(hex.find_first_not_of("0123456789abcdefABCDEF") ==
                           std::string::npos,
                       "non-hex \\u escape");
        pos_ += 4;
        out += static_cast<char>(std::strtoul(hex.c_str(), nullptr, 16));
        break;
      }
      default:
        CF_EXPECTS_MSG(false, "unknown escape");
    }
  }
}

double RecordParser::parse_number() {
  skip_ws();
  if (text_.compare(pos_, 4, "null") == 0) {
    pos_ += 4;
    return std::numeric_limits<double>::quiet_NaN();
  }
  const char* begin = text_.c_str() + pos_;
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  CF_EXPECTS_MSG(end != begin,
                 "expected a number at offset " + std::to_string(pos_));
  pos_ += static_cast<std::size_t>(end - begin);
  return v;
}

std::uint64_t RecordParser::parse_u64() {
  skip_ws();
  const char* begin = text_.c_str() + pos_;
  char* end = nullptr;
  // Digits only, and no ERANGE saturation: strtoull silently wraps a
  // leading minus and clamps overflow to 2^64 - 1.
  errno = 0;
  const std::uint64_t v = std::strtoull(begin, &end, 10);
  CF_EXPECTS_MSG(*begin >= '0' && *begin <= '9' && errno != ERANGE,
                 "expected an integer at offset " + std::to_string(pos_));
  pos_ += static_cast<std::size_t>(end - begin);
  return v;
}

void RecordParser::finish() {
  skip_ws();
  CF_EXPECTS_MSG(pos_ == text_.size(),
                 "trailing bytes at offset " + std::to_string(pos_));
}

void RecordParser::skip_ws() {
  while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t')) {
    ++pos_;
  }
}

void append_number_object(
    std::ostringstream& out,
    const std::vector<std::pair<std::string, double>>& entries) {
  out << '{';
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out << ',';
    out << '"' << json_escape(entries[i].first)
        << "\":" << json_number(entries[i].second);
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
      << json_number(r.telemetry.wall_seconds)
      << ",\"purchase_phase_seconds\":"
      << json_number(r.telemetry.purchase_phase_seconds)
      << ",\"seed_phase_seconds\":"
      << json_number(r.telemetry.seed_phase_seconds)
      << ",\"tax_phase_seconds\":"
      << json_number(r.telemetry.tax_phase_seconds)
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
  RunResult& r = record.result;
  RunTelemetry& t = r.telemetry;
  const auto numbers = [&p](std::vector<std::pair<std::string, double>>& out) {
    p.members([&](const std::string& name) {
      out.emplace_back(name, p.parse_number());
    });
  };
  p.members([&](const std::string& field) {
    if (field == "key") {
      const auto key = RunKey::from_hex(p.parse_string());
      CF_EXPECTS_MSG(key.has_value(), "run record: malformed key");
      record.key = *key;
    } else if (field == "run_index") {
      r.run_index = static_cast<std::size_t>(p.parse_u64());
    } else if (field == "point_index") {
      r.point_index = static_cast<std::size_t>(p.parse_u64());
    } else if (field == "seed_index") {
      r.seed_index = static_cast<std::size_t>(p.parse_u64());
    } else if (field == "seed") {
      r.seed = p.parse_u64();
    } else if (field == "params") {
      numbers(r.params);
    } else if (field == "metrics") {
      numbers(r.metrics);
    } else if (field == "telemetry") {
      // Records written before a field existed lack it; it reads back as
      // its zero default.
      p.members([&](const std::string& name) {
        if (name == "wall_seconds") {
          t.wall_seconds = p.parse_number();
        } else if (name == "purchase_phase_seconds") {
          t.purchase_phase_seconds = p.parse_number();
        } else if (name == "seed_phase_seconds") {
          t.seed_phase_seconds = p.parse_number();
        } else if (name == "tax_phase_seconds") {
          t.tax_phase_seconds = p.parse_number();
        } else if (name == "rounds") {
          t.rounds = p.parse_u64();
        } else if (name == "peak_rss_bytes") {
          t.peak_rss_bytes = p.parse_u64();
        } else if (name == "overlay_edges_dropped") {
          t.overlay_edges_dropped = p.parse_u64();
        } else if (name == "churn_arrivals_dropped") {
          t.churn_arrivals_dropped = p.parse_u64();
        } else {
          CF_EXPECTS_MSG(false, "run record: unknown telemetry field " + name);
        }
      });
    } else if (field == "error") {
      r.error = p.parse_string();
    } else {
      CF_EXPECTS_MSG(false, "run record: unknown field " + field);
    }
  });
  p.finish();
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
