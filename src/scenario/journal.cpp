#include "scenario/journal.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace creditflow::scenario {

namespace {

/// Extract the value of `"field":` from one flat journal line. Returns
/// false when the field is absent. Values are either unsigned integers or
/// double-quoted strings with no escapes — exactly what Journal emits.
bool extract_string(const std::string& line, const std::string& field,
                    std::string& out) {
  const std::string needle = "\"" + field + "\":\"";
  const auto at = line.find(needle);
  if (at == std::string::npos) return false;
  const auto begin = at + needle.size();
  const auto end = line.find('"', begin);
  if (end == std::string::npos) return false;
  out = line.substr(begin, end - begin);
  return true;
}

bool extract_u64(const std::string& line, const std::string& field,
                 std::uint64_t& out) {
  const std::string needle = "\"" + field + "\":";
  const auto at = line.find(needle);
  if (at == std::string::npos) return false;
  const char* begin = line.c_str() + at + needle.size();
  char* end = nullptr;
  out = std::strtoull(begin, &end, 10);
  return end != begin;
}

}  // namespace

JournalReplay replay_journal(const std::string& path) {
  JournalReplay replay;
  if (!std::filesystem::exists(path)) return replay;
  std::ifstream in(path);
  CF_EXPECTS_MSG(in.good(), "cannot read journal " + path);

  std::string line;
  std::size_t line_number = 0;
  auto drop = [&](const char* why) {
    ++replay.skipped;
    CF_LOG_WARN("journal " << path << ": dropping line " << line_number
                           << " (" << why << ")");
  };
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    // Every event Journal writes ends in '}'. A line torn anywhere before
    // that may still hold every field a search finds (a run index cut
    // from 12 to 1 reads as run 1), so it is dropped whole.
    if (line.back() != '}') {
      drop("no closing brace — torn");
      continue;
    }
    std::string ev;
    if (!extract_string(line, "ev", ev)) {
      drop("no event type — torn or malformed");
      continue;
    }
    if (ev == "plan") {
      std::string fingerprint;
      std::uint64_t runs = 0;
      if (!extract_string(line, "fingerprint", fingerprint) ||
          !extract_u64(line, "runs", runs)) {
        drop("incomplete plan event");
        continue;
      }
      if (replay.has_plan) {
        // Re-opened journals re-log the plan; identical fingerprints are
        // the expected idempotent case, a different one means someone
        // pointed two different sweeps at the same journal file.
        CF_EXPECTS_MSG(fingerprint == replay.fingerprint,
                       "journal " + path +
                           " holds events for a different plan "
                           "(fingerprint mismatch)");
      } else {
        replay.has_plan = true;
        replay.fingerprint = fingerprint;
        replay.plan_runs = runs;
      }
      ++replay.events;
      continue;
    }
    std::uint64_t run = 0;
    if (!extract_u64(line, "run", run)) {
      drop("event without a run index");
      continue;
    }
    if (replay.has_plan && run >= replay.plan_runs) {
      drop("run index outside the journalled plan");
      continue;
    }
    const auto idx = static_cast<std::size_t>(run);
    if (ev == "grant") {
      std::string session;
      if (!extract_string(line, "session", session)) {
        drop("grant without a session token");
        continue;
      }
      if (replay.open_leases.count(idx) != 0) ++replay.duplicate_grants;
      if (replay.completed.count(idx) == 0) {
        replay.open_leases[idx] = session;  // last grant wins
      }
      ++replay.events;
    } else if (ev == "done") {
      std::string key_hex;
      const auto key = extract_string(line, "key", key_hex)
                           ? RunKey::from_hex(key_hex)
                           : std::nullopt;
      if (!key.has_value()) {
        drop("done without a valid run key");
        continue;
      }
      replay.completed.emplace(idx, *key);  // first completion wins
      replay.open_leases.erase(idx);
      ++replay.events;
    } else if (ev == "requeue") {
      replay.open_leases.erase(idx);
      ++replay.events;
    } else {
      drop("unknown event type");
    }
  }
  if (replay.skipped > 0) {
    CF_LOG_WARN("journal " << path << ": " << replay.skipped
                           << " line(s) dropped during replay");
  }
  return replay;
}

Journal::Journal(std::string path) : Journal(std::move(path), Options{}) {}

Journal::Journal(std::string path, Options options)
    : path_(std::move(path)) {
  CF_EXPECTS_MSG(!path_.empty(), "journal path must be non-empty");
  const auto parent = std::filesystem::path(path_).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  replay_ = replay_journal(path_);
  file_.open(path_, options.fsync);
}

void Journal::record_plan(std::string_view fingerprint,
                          std::uint64_t runs) {
  file_.append_record("{\"ev\":\"plan\",\"fingerprint\":\"" +
                      std::string(fingerprint) + "\",\"runs\":" +
                      std::to_string(runs) + "}");
}

void Journal::record_grant(std::size_t run, std::string_view session) {
  file_.append_record("{\"ev\":\"grant\",\"run\":" + std::to_string(run) +
                      ",\"session\":\"" + std::string(session) + "\"}");
}

void Journal::record_done(std::size_t run, const RunKey& key) {
  file_.append_record("{\"ev\":\"done\",\"run\":" + std::to_string(run) +
                      ",\"key\":\"" + key.hex() + "\"}");
}

void Journal::record_requeue(std::size_t run) {
  file_.append_record("{\"ev\":\"requeue\",\"run\":" +
                      std::to_string(run) + "}");
}

}  // namespace creditflow::scenario
