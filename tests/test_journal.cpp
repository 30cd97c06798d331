// Tests for the coordinator's crash-safe write-ahead journal: event
// round-trips, lenient replay (torn tails, duplicate grants, unknown run
// indices), the hard fingerprint conflict, and the coordinator-level
// recovery semantics — a journalled completion whose record is missing
// from the store is re-executed, never trusted blindly.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "scenario/journal.hpp"
#include "scenario/scenario.hpp"
#include "util/assert.hpp"

namespace creditflow::scenario {
namespace {

std::filesystem::path scratch_dir(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   "creditflow_journal" / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

constexpr const char* kFingerprint = "0123456789abcdef0123456789abcdef";

RunKey key_of(std::uint64_t hi, std::uint64_t lo) {
  RunKey key;
  key.hi = hi;
  key.lo = lo;
  return key;
}

TEST(Journal, EventsRoundTripThroughReplay) {
  const auto path = (scratch_dir("roundtrip") / "sweep.journal").string();
  {
    Journal journal(path);
    journal.record_plan(kFingerprint, 8);
    journal.record_grant(0, "aaaaaaaaaaaaaaaa");
    journal.record_grant(1, "bbbbbbbbbbbbbbbb");
    journal.record_done(0, key_of(1, 2));
    journal.record_requeue(1);
    journal.record_grant(2, "bbbbbbbbbbbbbbbb");
  }
  const JournalReplay replay = replay_journal(path);
  EXPECT_TRUE(replay.has_plan);
  EXPECT_EQ(replay.fingerprint, kFingerprint);
  EXPECT_EQ(replay.plan_runs, 8u);
  EXPECT_EQ(replay.events, 6u);
  EXPECT_EQ(replay.skipped, 0u);
  // Run 0 completed, run 1's grant was closed by the requeue; only run 2
  // remains an open (orphaned) lease.
  ASSERT_EQ(replay.completed.size(), 1u);
  EXPECT_EQ(replay.completed.at(0), key_of(1, 2));
  ASSERT_EQ(replay.open_leases.size(), 1u);
  EXPECT_EQ(replay.open_leases.at(2), "bbbbbbbbbbbbbbbb");
}

TEST(Journal, MissingFileReplaysEmpty) {
  const auto path = (scratch_dir("missing") / "never-written").string();
  const JournalReplay replay = replay_journal(path);
  EXPECT_FALSE(replay.has_plan);
  EXPECT_EQ(replay.events, 0u);
}

TEST(Journal, TornTailIsSkippedNotFatal) {
  const auto path = (scratch_dir("torn") / "sweep.journal").string();
  {
    Journal journal(path);
    journal.record_plan(kFingerprint, 4);
    journal.record_grant(3, "cccccccccccccccc");
  }
  {
    // The writer died mid-append: the final line has no terminator and is
    // structurally incomplete.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << R"({"ev":"done","run":3,"ke)";
  }
  const JournalReplay replay = replay_journal(path);
  EXPECT_EQ(replay.events, 2u);
  EXPECT_EQ(replay.skipped, 1u);
  EXPECT_TRUE(replay.completed.empty());  // the torn done never applied
  ASSERT_EQ(replay.open_leases.size(), 1u);
  EXPECT_EQ(replay.open_leases.at(3), "cccccccccccccccc");

  // Appending through a fresh Journal repairs the torn tail first, so the
  // next event lands on its own intact line.
  {
    Journal journal(path);
    journal.record_done(3, key_of(7, 9));
  }
  const JournalReplay repaired = replay_journal(path);
  EXPECT_EQ(repaired.skipped, 1u);
  ASSERT_EQ(repaired.completed.size(), 1u);
  EXPECT_EQ(repaired.completed.at(3), key_of(7, 9));
  EXPECT_TRUE(repaired.open_leases.empty());
}

TEST(Journal, TornNumberIsNotReadAsAnotherRun) {
  const auto path = (scratch_dir("torn_number") / "sweep.journal").string();
  {
    Journal journal(path);
    journal.record_plan(kFingerprint, 16);
    journal.record_grant(1, "aaaaaaaaaaaaaaaa");
    journal.record_grant(12, "bbbbbbbbbbbbbbbb");
  }
  {
    // A requeue of run 12, torn inside its run index: every field is
    // still there, but the number reads as run 1.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << R"({"ev":"requeue","run":1)";
  }
  const JournalReplay replay = replay_journal(path);
  EXPECT_EQ(replay.events, 3u);
  EXPECT_EQ(replay.skipped, 1u);
  ASSERT_EQ(replay.open_leases.size(), 2u);
  EXPECT_EQ(replay.open_leases.at(1), "aaaaaaaaaaaaaaaa");
  EXPECT_EQ(replay.open_leases.at(12), "bbbbbbbbbbbbbbbb");
}

TEST(Journal, TornPlanLineDoesNotShrinkThePlan) {
  const auto path = (scratch_dir("torn_plan") / "sweep.journal").string();
  {
    // The first plan line of a 16-run sweep, torn inside its run count.
    std::ofstream out(path, std::ios::binary);
    out << R"({"ev":"plan","fingerprint":")" << kFingerprint
        << R"(","runs":1)";
  }
  {
    // A resumed coordinator repairs the tail, keeps the torn line and
    // re-logs the plan after it.
    Journal journal(path);
    journal.record_plan(kFingerprint, 16);
    journal.record_grant(5, "aaaaaaaaaaaaaaaa");
    journal.record_done(3, key_of(4, 2));
  }
  const JournalReplay replay = replay_journal(path);
  EXPECT_TRUE(replay.has_plan);
  EXPECT_EQ(replay.plan_runs, 16u);
  EXPECT_EQ(replay.skipped, 1u);
  EXPECT_EQ(replay.events, 3u);
  ASSERT_EQ(replay.open_leases.size(), 1u);
  EXPECT_EQ(replay.open_leases.at(5), "aaaaaaaaaaaaaaaa");
  ASSERT_EQ(replay.completed.size(), 1u);
  EXPECT_EQ(replay.completed.at(3), key_of(4, 2));
}

TEST(Journal, DuplicateGrantLastSessionWins) {
  const auto path = (scratch_dir("dup_grant") / "sweep.journal").string();
  {
    Journal journal(path);
    journal.record_plan(kFingerprint, 4);
    journal.record_grant(1, "aaaaaaaaaaaaaaaa");
    // The lease timed out and was re-granted to another session; on
    // replay the newer grant owns the orphan.
    journal.record_grant(1, "bbbbbbbbbbbbbbbb");
  }
  const JournalReplay replay = replay_journal(path);
  EXPECT_EQ(replay.duplicate_grants, 1u);
  ASSERT_EQ(replay.open_leases.size(), 1u);
  EXPECT_EQ(replay.open_leases.at(1), "bbbbbbbbbbbbbbbb");
}

TEST(Journal, EventsBeyondThePlanAreDropped) {
  const auto path = (scratch_dir("unknown_run") / "sweep.journal").string();
  {
    Journal journal(path);
    journal.record_plan(kFingerprint, 2);
    journal.record_grant(0, "aaaaaaaaaaaaaaaa");
    journal.record_grant(99, "aaaaaaaaaaaaaaaa");  // not in this plan
    journal.record_done(99, key_of(1, 1));
  }
  const JournalReplay replay = replay_journal(path);
  EXPECT_EQ(replay.skipped, 2u);
  EXPECT_EQ(replay.open_leases.size(), 1u);
  EXPECT_TRUE(replay.completed.empty());
}

TEST(Journal, ConflictingPlanFingerprintsAreAHardError) {
  const auto path = (scratch_dir("conflict") / "sweep.journal").string();
  {
    Journal journal(path);
    journal.record_plan(kFingerprint, 4);
    journal.record_plan("ffffffffffffffffffffffffffffffff", 4);
  }
  EXPECT_THROW(replay_journal(path), util::PreconditionError);
}

// ---- Coordinator-level recovery semantics --------------------------------

ScenarioSpec tiny_base() {
  ScenarioSpec spec;
  spec.name = "tiny";
  spec.config.protocol.initial_peers = 40;
  spec.config.protocol.max_peers = 40;
  spec.config.protocol.initial_credits = 30;
  spec.config.protocol.seed = 2012;
  spec.config.horizon = 60.0;
  spec.config.snapshot_interval = 15.0;
  return spec;
}

SweepSpec tiny_sweep() {
  SweepSpec sweep;
  sweep.axes.push_back(SweepAxis::parse("credits=20,40"));
  sweep.seeds = 2;
  return sweep;
}

TEST(Journal, CoordinatorRejectsAJournalFromADifferentSweep) {
  // The coordinator learns its plan from the sweep that executes it, so the
  // fingerprint check fires when serving starts, before any worker joins.
  const auto dir = scratch_dir("foreign_plan");
  const std::string journal_path = (dir / "sweep.journal").string();
  {
    Journal journal(journal_path);
    journal.record_plan(kFingerprint, 4);  // some other sweep's fingerprint
  }
  Coordinator::Options options;
  options.journal_path = journal_path;
  options.resume = true;
  Coordinator coordinator(options);
  SweepRunner::Options runner_options;
  runner_options.keep_reports = false;
  runner_options.cache_dir = (dir / "cache").string();
  runner_options.executor = &coordinator;
  SweepRunner runner(tiny_base(), tiny_sweep(), runner_options);
  EXPECT_THROW((void)runner.run(), util::PreconditionError);
}

TEST(Journal, DoneEventWithoutAStoreRecordIsReExecuted) {
  // The journal claims run 0 completed, but the store never got the
  // record (a lost append). The resumed coordinator must re-execute it —
  // the journal schedules, only the store vouches for result bytes.
  const auto dir = scratch_dir("lost_append");
  const std::string journal_path = (dir / "sweep.journal").string();
  const ScenarioSpec base = tiny_base();
  const SweepSpec sweep = tiny_sweep();
  const SweepPlan plan(base, sweep);
  {
    Journal journal(journal_path);
    journal.record_plan(
        RunKey::of(base.serialize() + sweep.serialize(), plan.size()).hex(),
        plan.size());
    journal.record_done(0, plan.key(0));
  }

  Coordinator::Options options;
  options.journal_path = journal_path;
  options.resume = true;
  Coordinator coordinator(options);
  SweepRunner::Options runner_options;
  runner_options.keep_reports = false;
  runner_options.cache_dir = (dir / "cache").string();
  runner_options.executor = &coordinator;
  std::vector<RunResult> results;
  std::thread serve([&] {
    results = SweepRunner(base, sweep, runner_options).run();
  });
  WorkerReport report;
  std::thread worker([&] {
    report = run_worker("127.0.0.1", coordinator.port(), WorkerOptions{});
  });
  worker.join();
  serve.join();

  EXPECT_TRUE(report.completed) << report.error;
  EXPECT_EQ(coordinator.status().cache_hits, 0u);
  EXPECT_EQ(coordinator.status().executed, plan.size());  // run 0 included
  ASSERT_EQ(results.size(), plan.size());
  for (const auto& r : results) {
    EXPECT_TRUE(r.error.empty()) << r.run_index << ": " << r.error;
  }
}

}  // namespace
}  // namespace creditflow::scenario
