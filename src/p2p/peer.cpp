#include "p2p/peer.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace creditflow::p2p {

PeerTable::PeerTable(std::size_t max_peers, std::size_t window_chunks)
    : upload_capacity_(max_peers, 0.0),
      base_spend_rate_(max_peers, 0.0),
      join_time_(max_peers, 0.0),
      window_(window_chunks),
      words_((window_chunks + 63) / 64),
      row_words_(max_peers * words_, 0),
      base_(max_peers, 0),
      credits_earned_(max_peers, 0),
      credits_spent_(max_peers, 0),
      chunks_downloaded_(max_peers, 0),
      chunks_uploaded_(max_peers, 0),
      chunks_seeded_(max_peers, 0),
      strategy_(max_peers, 0),
      activations_(max_peers, 0) {
  CF_EXPECTS(max_peers > 0);
  CF_EXPECTS(window_chunks > 0);
}

void PeerTable::advance(PeerId i, ChunkId new_base) {
  CF_EXPECTS_MSG(new_base >= base_[i], "window cannot move backwards");
  std::uint64_t* row = row_words_.data() + i * words_;
  if (new_base - base_[i] >= window_) {
    std::fill_n(row, words_, std::uint64_t{0});
  } else {
    std::size_t s = slot(base_[i]);
    for (ChunkId c = base_[i]; c < new_base; ++c) {
      row[s / 64] &= ~(std::uint64_t{1} << (s % 64));
      if (++s == window_) s = 0;
    }
  }
  base_[i] = new_base;
}

void PeerTable::reset_window(PeerId i, ChunkId new_base) {
  std::fill_n(row_words_.data() + i * words_, words_, std::uint64_t{0});
  base_[i] = new_base;
}

void PeerTable::reset_slot(PeerId i, double now) {
  CF_EXPECTS(i < size());
  join_time_[i] = now;
  credits_earned_[i] = 0;
  credits_spent_[i] = 0;
  chunks_downloaded_[i] = 0;
  chunks_uploaded_[i] = 0;
  chunks_seeded_[i] = 0;
}

}  // namespace creditflow::p2p
