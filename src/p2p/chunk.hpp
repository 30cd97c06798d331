// CreditFlow: stream chunks and per-peer availability windows.
//
// A live stream is an unbounded sequence of chunks 0,1,2,… emitted at a
// fixed rate. Peers hold a sliding playback window; the BufferMap tracks
// which chunks inside the window a peer currently has, backed by a ring
// buffer so advancing the window is O(evicted), not O(window).
#pragma once

#include <cstddef>
#include <cstdint>

namespace creditflow::p2p {

using ChunkId = std::uint64_t;

/// Sliding-window chunk availability bitmap (64-bit words under the hood,
/// which the purchase phase reads whole through PeerTable::owned).
///
/// A BufferMap is a view over words its caller owns: the market backs every
/// peer's window with one contiguous arena sized at construction, so a
/// million BufferMaps cost one allocation and their words pack densely in
/// slot order. A copy is another view of the same words.
class BufferMap {
 public:
  /// Number of 64-bit words backing a window of `capacity` slots.
  [[nodiscard]] static std::size_t words_for(std::size_t capacity) {
    return (capacity + 63) / 64;
  }

  /// Window of `capacity` consecutive chunk slots starting at chunk 0.
  /// `words` must point at words_for(capacity) words that outlive this
  /// map; they are zeroed here.
  BufferMap(std::size_t capacity, std::uint64_t* words);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// First chunk id inside the window.
  [[nodiscard]] ChunkId base() const { return base_; }
  /// One-past-last chunk id inside the window.
  [[nodiscard]] ChunkId end() const { return base_ + capacity_; }
  /// Number of chunks currently held.
  [[nodiscard]] std::size_t count() const { return count_; }
  /// Fill ratio in [0,1].
  [[nodiscard]] double fill() const;

  // Inline: has/set/in_window run once per purchase candidate / delivery,
  // millions of times per simulated run.
  [[nodiscard]] bool in_window(ChunkId c) const {
    return c >= base_ && c < base_ + capacity_;
  }
  /// True when the peer holds chunk c (false outside the window).
  [[nodiscard]] bool has(ChunkId c) const {
    if (!in_window(c)) return false;
    return bit(slot(c));
  }
  /// Mark chunk c as held; returns false if c is outside the window or
  /// already held.
  bool set(ChunkId c) {
    if (!in_window(c)) return false;
    const std::size_t s = slot(c);
    if (bit(s)) return false;
    words_[s / 64] |= std::uint64_t{1} << (s % 64);
    ++count_;
    return true;
  }

  /// Advance the window base to `new_base` (>= current base), evicting
  /// chunks that fall out. Returns the number of held chunks evicted.
  std::size_t advance(ChunkId new_base);

  /// Reset to an empty window at the given base.
  void reset(ChunkId new_base);

 private:
  [[nodiscard]] std::size_t slot(ChunkId c) const {
    return static_cast<std::size_t>(c % capacity_);
  }
  [[nodiscard]] bool bit(std::size_t s) const {
    return (words_[s / 64] >> (s % 64)) & 1;
  }
  void clear_bit(std::size_t s) {
    words_[s / 64] &= ~(std::uint64_t{1} << (s % 64));
  }

  std::uint64_t* words_;  ///< words_for(capacity_) words, caller-owned
  std::size_t capacity_;
  ChunkId base_ = 0;
  std::size_t count_ = 0;
};

}  // namespace creditflow::p2p
