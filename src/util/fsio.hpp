// CreditFlow: durable file primitives for the sweep farm's persistent
// state — the RunStore cache and the aggregate output files.
//
// Two primitives, both POSIX-fd based so durability is a real property and
// not a stdio buffering accident:
//
//   AppendFile — an O_APPEND record log. Each append is a single write(2),
//   so concurrent appenders interleave at record boundaries; an optional
//   fsync per append upgrades "survives a process kill" to "survives a
//   power cut". Opening detects a torn final line (a writer killed
//   mid-append) and repairs it by prefixing the next record with '\n'.
//
//   atomic_write_file — whole-file replace via temp file + rename(2), so a
//   reader (or a crash) never observes a torn aggregate CSV/JSON: the path
//   either holds the old complete bytes or the new complete bytes.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace creditflow::util {

/// Append-only record log over a POSIX descriptor.
class AppendFile {
 public:
  AppendFile() = default;
  ~AppendFile() { close(); }

  AppendFile(AppendFile&& other) noexcept;
  AppendFile& operator=(AppendFile&& other) noexcept;
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  /// Open (creating if absent) for appending. With fsync_on_append every
  /// append is followed by fsync(2). Throws util::PreconditionError when
  /// the file cannot be opened.
  void open(const std::string& path, bool fsync_on_append);

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }

  /// True when the file existed and its last byte was not '\n' — a torn
  /// tail from a killed writer. The first append_record repairs it.
  [[nodiscard]] bool opened_mid_line() const { return needs_newline_; }

  /// Append `record` plus a trailing '\n' as one write (prefixed by a
  /// repair '\n' when the existing tail was torn). Throws
  /// util::PreconditionError on I/O failure.
  void append_record(std::string_view record);

  void close();

 private:
  int fd_ = -1;
  bool fsync_on_append_ = false;
  bool needs_newline_ = false;
  std::string path_;
};

/// Replace `path` with `content` atomically: write a sibling temp file,
/// optionally fsync it, then rename over the target. Returns false (after
/// cleaning up the temp file) on any failure instead of throwing — callers
/// report the path in their own error style.
[[nodiscard]] bool atomic_write_file(const std::string& path,
                                     std::string_view content,
                                     bool fsync_file = false);

}  // namespace creditflow::util
