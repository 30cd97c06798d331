// CreditFlow: per-peer protocol state. Balances live in the CreditLedger;
// everything else a peer carries through the streaming protocol lives in
// the PeerTable — a structure-of-arrays layout where each field is one
// dense array indexed by slot, so the round loop's field sweeps (window
// advance, budget refresh, snapshots) walk contiguous memory instead of
// striding over interleaved structs. Membership lives in the Overlay.
//
// A live stream is an unbounded sequence of chunks 0,1,2,… emitted at a
// fixed rate. Each peer holds a sliding playback window of the newest
// chunks: its buffer map is one ownership row of bits, a ring indexed by
// chunk % window, so advancing the window clears only the slots that leave.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "p2p/ledger.hpp"
#include "strategy/strategy.hpp"

namespace creditflow::p2p {

using ChunkId = std::uint64_t;

/// Structure-of-arrays store of every peer slot's protocol state. One field
/// = one dense array indexed by PeerId, allocated once at construction; the
/// ownership rows share a single word arena packed in slot order, so a
/// million peers cost a handful of allocations and the hot phases touch
/// only the arrays they need.
class PeerTable {
 public:
  PeerTable(std::size_t max_peers, std::size_t window_chunks);

  PeerTable(const PeerTable&) = delete;
  PeerTable& operator=(const PeerTable&) = delete;

  [[nodiscard]] std::size_t size() const { return activations_.size(); }

  [[nodiscard]] double upload_capacity(PeerId i) const {
    return upload_capacity_[i];
  }
  void set_upload_capacity(PeerId i, double v) { upload_capacity_[i] = v; }

  [[nodiscard]] double base_spend_rate(PeerId i) const {
    return base_spend_rate_[i];
  }
  void set_base_spend_rate(PeerId i, double v) { base_spend_rate_[i] = v; }

  [[nodiscard]] double join_time(PeerId i) const { return join_time_[i]; }
  void set_join_time(PeerId i, double v) { join_time_[i] = v; }

  /// Chunks per window, the same for every slot.
  [[nodiscard]] std::size_t window() const { return window_; }
  /// First chunk of slot i's window [base(i), base(i) + window()).
  [[nodiscard]] ChunkId base(PeerId i) const { return base_[i]; }
  /// Slot i's ownership row, its buffer map: bit `chunk % window()` is set
  /// <=> the slot holds that chunk of its current window. The purchase
  /// phase takes a buyer's wanted slots from the complement of its row and
  /// ANDs its neighbors' rows against them.
  [[nodiscard]] std::span<const std::uint64_t> owned(PeerId i) const {
    return {row_words_.data() + i * words_, words_};
  }
  /// Number of chunks slot i holds: the popcount of its row.
  [[nodiscard]] std::size_t count(PeerId i) const {
    std::size_t n = 0;
    for (const std::uint64_t w : owned(i)) {
      n += static_cast<std::size_t>(std::popcount(w));
    }
    return n;
  }
  /// Fill ratio of slot i's window, in [0,1].
  [[nodiscard]] double fill(PeerId i) const {
    return static_cast<double>(count(i)) / static_cast<double>(window_);
  }

  /// True when slot i holds chunk c (false outside its window).
  [[nodiscard]] bool has(PeerId i, ChunkId c) const {
    if (c < base_[i] || c - base_[i] >= window_) return false;
    const std::size_t s = slot(c);
    return (owned(i)[s / 64] >> (s % 64)) & 1;
  }
  /// Mark chunk c as held by slot i; returns false if c is outside the
  /// window or already held. Inline: it runs once per seeded or purchased
  /// chunk, millions of times per simulated run.
  bool set(PeerId i, ChunkId c) {
    if (c < base_[i] || c - base_[i] >= window_) return false;
    const std::size_t s = slot(c);
    std::uint64_t& word = row_words_[i * words_ + s / 64];
    const std::uint64_t bit = std::uint64_t{1} << (s % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
  }
  /// Move slot i's window base to `new_base` (>= base(i)), dropping the
  /// chunks that leave the window.
  void advance(PeerId i, ChunkId new_base);
  /// Empty slot i's window and start it at `new_base`.
  void reset_window(PeerId i, ChunkId new_base);

  [[nodiscard]] std::uint64_t& credits_earned(PeerId i) {
    return credits_earned_[i];
  }
  [[nodiscard]] std::uint64_t credits_earned(PeerId i) const {
    return credits_earned_[i];
  }
  [[nodiscard]] std::uint64_t& credits_spent(PeerId i) {
    return credits_spent_[i];
  }
  [[nodiscard]] std::uint64_t credits_spent(PeerId i) const {
    return credits_spent_[i];
  }
  [[nodiscard]] std::uint64_t& chunks_downloaded(PeerId i) {
    return chunks_downloaded_[i];
  }
  [[nodiscard]] std::uint64_t chunks_downloaded(PeerId i) const {
    return chunks_downloaded_[i];
  }
  [[nodiscard]] std::uint64_t& chunks_seeded(PeerId i) {
    return chunks_seeded_[i];
  }

  /// Behavioral strategy of the slot's occupant (hash-assigned at
  /// activation; kHonest everywhere when the strategy layer is off).
  [[nodiscard]] strategy::Strategy strategy(PeerId i) const {
    return static_cast<strategy::Strategy>(strategy_[i]);
  }
  void set_strategy(PeerId i, strategy::Strategy s) {
    strategy_[i] = static_cast<std::uint8_t>(s);
  }

  /// How many times this slot has been activated (survives reset_slot —
  /// the rejoin-mint policy keys off it, so a whitewasher cycling its slot
  /// cannot reset the count it is trying to exploit).
  [[nodiscard]] std::uint32_t activations(PeerId i) const {
    return activations_[i];
  }
  /// Increment and return the slot's activation count.
  std::uint32_t bump_activations(PeerId i) { return ++activations_[i]; }

  /// Reset a slot's scalar fields for (re)activation: counters to zero,
  /// join time to now (its departure is an event on the calendar). Buffer
  /// and capabilities are the caller's to set — they depend on RNG draws
  /// the caller sequences. The strategy tag and activation count survive:
  /// both are properties of the slot id, not of one occupancy.
  void reset_slot(PeerId i, double now);

  /// Lifetime average spending rate in credits/sec at time `now`.
  [[nodiscard]] double lifetime_spend_rate(PeerId i, double now) const {
    const double a = now - join_time_[i];
    return a > 0.0 ? static_cast<double>(credits_spent_[i]) / a : 0.0;
  }

  /// Lifetime average download rate in chunks/sec at time `now` (purchased
  /// plus seeded).
  [[nodiscard]] double lifetime_download_rate(PeerId i, double now) const {
    const double a = now - join_time_[i];
    return a > 0.0 ? static_cast<double>(chunks_downloaded_[i] +
                                         chunks_seeded_[i]) /
                         a
                   : 0.0;
  }

 private:
  [[nodiscard]] std::size_t slot(ChunkId c) const {
    return static_cast<std::size_t>(c % window_);
  }

  std::vector<double> upload_capacity_;
  std::vector<double> base_spend_rate_;
  std::vector<double> join_time_;
  std::size_t window_;
  std::size_t words_;  ///< arena words per slot
  /// One arena of ownership rows for the whole table, packed in slot order.
  std::vector<std::uint64_t> row_words_;
  std::vector<ChunkId> base_;  ///< each slot's window base
  std::vector<std::uint64_t> credits_earned_;
  std::vector<std::uint64_t> credits_spent_;
  std::vector<std::uint64_t> chunks_downloaded_;
  std::vector<std::uint64_t> chunks_seeded_;
  std::vector<std::uint8_t> strategy_;
  std::vector<std::uint32_t> activations_;
};

}  // namespace creditflow::p2p
