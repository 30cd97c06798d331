#include "p2p/chunk.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace creditflow::p2p {

BufferMap::BufferMap(std::size_t capacity, std::uint64_t* words)
    : words_(words), capacity_(capacity) {
  CF_EXPECTS(capacity > 0);
  CF_EXPECTS(words != nullptr);
  std::fill(words_, words_ + words_for(capacity_), std::uint64_t{0});
}

double BufferMap::fill() const {
  return static_cast<double>(count_) / static_cast<double>(capacity_);
}

std::size_t BufferMap::advance(ChunkId new_base) {
  CF_EXPECTS_MSG(new_base >= base_, "window cannot move backwards");
  std::size_t evicted = 0;
  // Evict slots that leave the window; if the jump exceeds the capacity the
  // whole buffer is cleared.
  if (new_base >= base_ + capacity_) {
    evicted = count_;
    std::fill(words_, words_ + words_for(capacity_), std::uint64_t{0});
    count_ = 0;
  } else {
    std::size_t s = slot(base_);
    for (ChunkId c = base_; c < new_base; ++c) {
      if (bit(s)) {
        clear_bit(s);
        --count_;
        ++evicted;
      }
      if (++s == capacity_) s = 0;
    }
  }
  base_ = new_base;
  return evicted;
}

void BufferMap::reset(ChunkId new_base) {
  std::fill(words_, words_ + words_for(capacity_), std::uint64_t{0});
  base_ = new_base;
  count_ = 0;
}

}  // namespace creditflow::p2p
