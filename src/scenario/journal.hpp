// CreditFlow scenario engine: the coordinator's crash-safe write-ahead
// journal.
//
// The RunStore already makes completed *results* durable; the journal
// makes the coordinator's *scheduling state* durable too. Every lease
// grant, completion, and requeue is appended as one JSONL line before the
// coordinator acts on it, so a SIGKILLed-and-restarted coordinator (same
// --journal, same --cache-dir, --resume) reconstructs the exact
// pending/leased/done partition of the plan: completed runs are recalled,
// orphaned leases are re-created under their original session tokens
// (reclaimable via the RESUME handshake by workers that outlive the
// coordinator), and only genuinely missing runs are executed again.
//
// Journal grammar — one event object per line, append-only:
//
//   {"ev":"plan","fingerprint":"<32 hex>","runs":N}
//       written once at open; the fingerprint binds the journal to one
//       exact plan (spec ‖ sweep text), so resuming against a different
//       sweep is an error, never silent corruption
//   {"ev":"grant","run":I,"session":"<16 hex>"}
//   {"ev":"done","run":I,"key":"<32 hex>"}
//   {"ev":"requeue","run":I}
//
// Replay reads each line with the run records' parser (RecordParser) and is
// lenient the way the RunStore load is lenient: a line that does not parse
// as one complete event — a torn tail among them — is skipped with a
// warning (it costs at most one re-executed run), duplicate grants
// overwrite (last session wins), and events that contradict the plan
// (unknown run index) are dropped.
// Conflicting plan fingerprints, by contrast, are a hard error.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "scenario/plan.hpp"
#include "util/fsio.hpp"

namespace creditflow::scenario {

/// The scheduling state reconstructed from a journal file.
struct JournalReplay {
  bool has_plan = false;
  std::string fingerprint;      ///< from the plan event
  std::uint64_t plan_runs = 0;  ///< plan size recorded at journalling time

  /// Grants never closed by a done/requeue: run index → session token.
  /// These become reclaimable orphan leases in the restarted coordinator.
  std::map<std::size_t, std::string> open_leases;
  /// Runs journalled complete: run index → the delivered record's RunKey.
  std::map<std::size_t, RunKey> completed;

  std::size_t events = 0;            ///< well-formed events applied
  std::size_t skipped = 0;           ///< malformed/torn lines dropped
  std::size_t duplicate_grants = 0;  ///< re-grants observed (last wins)
};

/// Parse and fold a journal file; missing file → empty replay. Throws
/// util::PreconditionError only on conflicting plan fingerprints within
/// one file — everything else is lenient.
[[nodiscard]] JournalReplay replay_journal(const std::string& path);

/// The append half: one Journal instance is the single writer for a
/// coordinator's lifetime. Opening replays whatever the file already holds
/// (see replayed()) and then appends new events after it.
class Journal {
 public:
  struct Options {
    bool fsync = false;  ///< fsync every event (power-cut durability)
  };

  /// Opens (creating) `path` and replays existing events. The caller
  /// decides what replayed state means — a fresh coordinator rejects a
  /// non-empty journal unless resuming.
  explicit Journal(std::string path);
  Journal(std::string path, Options options);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] const JournalReplay& replayed() const { return replay_; }

  void record_plan(std::string_view fingerprint, std::uint64_t runs);
  void record_grant(std::size_t run, std::string_view session);
  void record_done(std::size_t run, const RunKey& key);
  void record_requeue(std::size_t run);

 private:
  std::string path_;
  JournalReplay replay_;
  util::AppendFile file_;
};

}  // namespace creditflow::scenario
