// CreditFlow: per-peer protocol state. Balances live in the CreditLedger;
// everything else a peer carries through the streaming protocol lives in
// the PeerTable — a structure-of-arrays layout where each field is one
// dense array indexed by slot, so the round loop's field sweeps (window
// advance, budget refresh, snapshots) walk contiguous memory instead of
// striding over interleaved structs. Membership lives in the Overlay.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "p2p/chunk.hpp"
#include "p2p/ledger.hpp"
#include "strategy/strategy.hpp"

namespace creditflow::p2p {

/// Structure-of-arrays store of every peer slot's protocol state. One field
/// = one dense array indexed by PeerId, allocated once at construction; all
/// BufferMap windows share a single word arena packed in slot order, so a
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

  [[nodiscard]] BufferMap& buffer(PeerId i) { return buffers_[i]; }
  [[nodiscard]] const BufferMap& buffer(PeerId i) const { return buffers_[i]; }

  /// Chunks per window (every slot's BufferMap capacity).
  [[nodiscard]] std::size_t window() const { return window_; }
  /// Slot i's ownership bitmap: its BufferMap's words in the arena. Bit
  /// `chunk % window()` is set <=> the slot holds that chunk of its current
  /// window. The purchase phase takes a buyer's wanted slots from the
  /// complement of its row and ANDs its neighbors' rows against them.
  [[nodiscard]] std::span<const std::uint64_t> owned(PeerId i) const {
    return {buffer_words_.data() + i * words_, words_};
  }

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
  [[nodiscard]] std::uint64_t& chunks_uploaded(PeerId i) {
    return chunks_uploaded_[i];
  }
  [[nodiscard]] std::uint64_t chunks_uploaded(PeerId i) const {
    return chunks_uploaded_[i];
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
  std::vector<double> upload_capacity_;
  std::vector<double> base_spend_rate_;
  std::vector<double> join_time_;
  std::size_t window_;
  std::size_t words_;  ///< arena words per slot
  /// One arena of BufferMap words for the whole table, packed in slot
  /// order; sized once and never resized (buffers_ hold raw pointers in).
  std::vector<std::uint64_t> buffer_words_;
  std::vector<BufferMap> buffers_;  ///< arena-backed views, one per slot
  std::vector<std::uint64_t> credits_earned_;
  std::vector<std::uint64_t> credits_spent_;
  std::vector<std::uint64_t> chunks_downloaded_;
  std::vector<std::uint64_t> chunks_uploaded_;
  std::vector<std::uint64_t> chunks_seeded_;
  std::vector<std::uint8_t> strategy_;
  std::vector<std::uint32_t> activations_;
};

}  // namespace creditflow::p2p
