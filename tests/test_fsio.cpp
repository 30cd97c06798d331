// Tests for the durable file primitives underneath the sweep farm —
// AppendFile's torn-tail detection/repair, atomic_write_file's
// all-or-nothing replace — and for the Backoff schedule every retry loop
// shares (deterministic under a pinned seed, capped, jitter-bounded).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "util/backoff.hpp"
#include "util/fsio.hpp"

namespace creditflow::util {
namespace {

std::filesystem::path scratch_dir(const std::string& name) {
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / "creditflow_fsio" / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// ---- AppendFile ----------------------------------------------------------

TEST(AppendFile, AppendsNewlineTerminatedRecords) {
  const auto path = scratch_dir("append") / "log.jsonl";
  AppendFile log;
  log.open(path.string(), /*fsync_on_append=*/false);
  EXPECT_TRUE(log.is_open());
  EXPECT_FALSE(log.opened_mid_line());  // fresh file, nothing torn
  log.append_record("one");
  log.append_record("two");
  log.close();
  EXPECT_EQ(slurp(path), "one\ntwo\n");
}

TEST(AppendFile, ReopeningACleanFileAppendsAfterTheTail) {
  const auto path = scratch_dir("reopen") / "log.jsonl";
  {
    AppendFile log;
    log.open(path.string(), false);
    log.append_record("first");
  }
  AppendFile log;
  log.open(path.string(), false);
  EXPECT_FALSE(log.opened_mid_line());
  log.append_record("second");
  log.close();
  EXPECT_EQ(slurp(path), "first\nsecond\n");
}

TEST(AppendFile, TornTailIsDetectedAndRepairedByTheNextAppend) {
  const auto path = scratch_dir("torn") / "log.jsonl";
  // A writer killed mid-append leaves a line without its terminator.
  {
    std::ofstream out(path, std::ios::binary);
    out << "complete\npartia";  // no trailing '\n'
  }
  AppendFile log;
  log.open(path.string(), false);
  EXPECT_TRUE(log.opened_mid_line());
  log.append_record("next");
  log.close();
  // The repair newline isolates the torn fragment on its own line, so a
  // lenient line-oriented reader skips exactly one record.
  EXPECT_EQ(slurp(path), "complete\npartia\nnext\n");
}

TEST(AppendFile, FsyncModeStillWritesTheSameBytes) {
  const auto path = scratch_dir("fsync") / "log.jsonl";
  AppendFile log;
  log.open(path.string(), /*fsync_on_append=*/true);
  log.append_record("durable");
  log.close();
  EXPECT_EQ(slurp(path), "durable\n");
}

// ---- atomic_write_file ---------------------------------------------------

TEST(AtomicWriteFile, CreatesAndReplacesWholeFiles) {
  const auto dir = scratch_dir("atomic");
  const auto path = dir / "out.csv";
  ASSERT_TRUE(atomic_write_file(path.string(), "v1\n"));
  EXPECT_EQ(slurp(path), "v1\n");
  ASSERT_TRUE(atomic_write_file(path.string(), "v2 with more bytes\n"));
  EXPECT_EQ(slurp(path), "v2 with more bytes\n");
  // No temp-file litter: the rename consumed it (or failure unlinked it).
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST(AtomicWriteFile, FailureReportsFalseInsteadOfThrowing) {
  EXPECT_FALSE(atomic_write_file("/nonexistent-dir/nope/out.csv", "x"));
}

// ---- Backoff -------------------------------------------------------------

TEST(Backoff, SameSeedReplaysTheSameSchedule) {
  Backoff::Options options;
  options.seed = 42;
  Backoff a(options);
  Backoff b(options);
  for (int k = 0; k < 20; ++k) {
    EXPECT_DOUBLE_EQ(a.next(), b.next()) << k;
  }
}

TEST(Backoff, DelaysGrowExponentiallyUnderTheCapAndJitterBound) {
  Backoff::Options options;
  options.initial_seconds = 0.05;
  options.max_seconds = 1.0;
  options.jitter = 0.25;
  options.seed = 7;
  Backoff backoff(options);
  for (int k = 0; k < 30; ++k) {
    const double envelope = std::min(0.05 * std::pow(2.0, k), 1.0);
    const double delay = backoff.next();
    EXPECT_LE(delay, envelope) << k;            // jitter only shaves down
    EXPECT_GE(delay, envelope * 0.75 - 1e-12) << k;  // ...at most 25%
  }
}

TEST(Backoff, ResetRestartsTheSchedule) {
  Backoff::Options options;
  options.jitter = 0.0;  // exact delays for this test
  Backoff backoff(options);
  EXPECT_DOUBLE_EQ(backoff.next(), 0.05);
  EXPECT_DOUBLE_EQ(backoff.next(), 0.10);
  backoff.reset();
  EXPECT_DOUBLE_EQ(backoff.next(), 0.05);  // back to the initial delay
}

}  // namespace
}  // namespace creditflow::util
