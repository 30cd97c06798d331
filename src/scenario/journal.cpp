#include "scenario/journal.hpp"

#include <filesystem>
#include <fstream>
#include <optional>

#include "scenario/store.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace creditflow::scenario {

namespace {

/// One journal line's members; a member the line lacks stays empty.
struct Event {
  std::string ev;
  std::string fingerprint;
  std::string session;
  std::string key;
  std::optional<std::uint64_t> run;
  std::optional<std::uint64_t> runs;
};

/// Parse one journal line; throws util::PreconditionError unless it is one
/// complete event object. A line torn anywhere before its closing brace
/// fails here even when every member survived (a run index cut from 12 to
/// 1 would read as run 1), so it is dropped whole.
Event parse_event(const std::string& line) {
  Event e;
  RecordParser p(line);
  p.members([&](const std::string& field) {
    if (field == "run") {
      e.run = p.parse_u64();
    } else if (field == "runs") {
      e.runs = p.parse_u64();
    } else if (field == "ev") {
      e.ev = p.parse_string();
    } else if (field == "fingerprint") {
      e.fingerprint = p.parse_string();
    } else if (field == "session") {
      e.session = p.parse_string();
    } else if (field == "key") {
      e.key = p.parse_string();
    } else {
      CF_EXPECTS_MSG(false, "unknown journal field " + field);
    }
  });
  p.finish();
  return e;
}

}  // namespace

JournalReplay replay_journal(const std::string& path) {
  JournalReplay replay;
  if (!std::filesystem::exists(path)) return replay;
  std::ifstream in(path);
  CF_EXPECTS_MSG(in.good(), "cannot read journal " + path);

  std::string line;
  std::size_t line_number = 0;
  auto drop = [&](std::string_view why) {
    ++replay.skipped;
    CF_LOG_WARN("journal " << path << ": dropping line " << line_number
                           << " (" << why << ")");
  };
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    Event e;
    try {
      e = parse_event(line);
    } catch (const util::PreconditionError& err) {
      drop(err.what());
      continue;
    }
    if (e.ev == "plan") {
      if (e.fingerprint.empty() || !e.runs) {
        drop("incomplete plan event");
        continue;
      }
      if (replay.has_plan) {
        // Re-opened journals re-log the plan; identical fingerprints are
        // the expected idempotent case, a different one means someone
        // pointed two different sweeps at the same journal file.
        CF_EXPECTS_MSG(e.fingerprint == replay.fingerprint,
                       "journal " + path +
                           " holds events for a different plan "
                           "(fingerprint mismatch)");
      } else {
        replay.has_plan = true;
        replay.fingerprint = e.fingerprint;
        replay.plan_runs = *e.runs;
      }
      ++replay.events;
      continue;
    }
    if (!e.run) {
      drop("event without a run index");
      continue;
    }
    if (replay.has_plan && *e.run >= replay.plan_runs) {
      drop("run index outside the journalled plan");
      continue;
    }
    const auto idx = static_cast<std::size_t>(*e.run);
    if (e.ev == "grant") {
      if (e.session.empty()) {
        drop("grant without a session token");
        continue;
      }
      if (replay.open_leases.count(idx) != 0) ++replay.duplicate_grants;
      if (replay.completed.count(idx) == 0) {
        replay.open_leases[idx] = e.session;  // last grant wins
      }
      ++replay.events;
    } else if (e.ev == "done") {
      const auto key = RunKey::from_hex(e.key);
      if (!key.has_value()) {
        drop("done without a valid run key");
        continue;
      }
      replay.completed.emplace(idx, *key);  // first completion wins
      replay.open_leases.erase(idx);
      ++replay.events;
    } else if (e.ev == "requeue") {
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
