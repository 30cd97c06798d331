#include "p2p/peer.hpp"

#include "util/assert.hpp"

namespace creditflow::p2p {

PeerTable::PeerTable(std::size_t max_peers, std::size_t window_chunks)
    : upload_capacity_(max_peers, 0.0),
      base_spend_rate_(max_peers, 0.0),
      join_time_(max_peers, 0.0),
      window_(window_chunks),
      words_(BufferMap::words_for(window_chunks)),
      buffer_words_(max_peers * words_, 0),
      credits_earned_(max_peers, 0),
      credits_spent_(max_peers, 0),
      chunks_downloaded_(max_peers, 0),
      chunks_uploaded_(max_peers, 0),
      chunks_seeded_(max_peers, 0),
      strategy_(max_peers, 0),
      activations_(max_peers, 0) {
  CF_EXPECTS(max_peers > 0);
  CF_EXPECTS(window_chunks > 0);
  buffers_.reserve(max_peers);
  for (std::size_t i = 0; i < max_peers; ++i) {
    buffers_.emplace_back(window_chunks, buffer_words_.data() + i * words_);
  }
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
