#include "p2p/chunk.hpp"

#include <algorithm>
#include <bit>

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

bool BufferMap::missing_in_slot_range(std::size_t s_lo, std::size_t s_hi,
                                      ChunkId chunk_at_lo,
                                      std::vector<ChunkId>& out,
                                      std::size_t cap) const {
  for (std::size_t w = s_lo / 64; w * 64 < s_hi; ++w) {
    std::uint64_t gaps = ~words_[w];
    // Mask bits outside [s_lo, s_hi) within this word.
    if (w * 64 < s_lo) gaps &= ~std::uint64_t{0} << (s_lo % 64);
    if (s_hi < (w + 1) * 64) gaps &= ~(~std::uint64_t{0} << (s_hi % 64));
    while (gaps != 0) {
      const std::size_t s =
          w * 64 + static_cast<std::size_t>(std::countr_zero(gaps));
      gaps &= gaps - 1;
      out.push_back(chunk_at_lo + (s - s_lo));
      if (out.size() >= cap) return false;
    }
  }
  return true;
}

void BufferMap::missing_into(std::vector<ChunkId>& out,
                             std::size_t max_results) const {
  out.clear();
  const std::size_t cap = max_results == 0 ? capacity_ : max_results;
  // The ring holds exactly the current window, starting at slot(base_):
  // walk [slot(base_), capacity) then the wrapped [0, slot(base_)) range,
  // which visits chunks in ascending id order.
  const std::size_t s0 = slot(base_);
  if (!missing_in_slot_range(s0, capacity_, base_, out, cap)) return;
  if (s0 > 0) {
    missing_in_slot_range(0, s0, base_ + (capacity_ - s0), out, cap);
  }
}

void BufferMap::reset(ChunkId new_base) {
  std::fill(words_, words_ + words_for(capacity_), std::uint64_t{0});
  base_ = new_base;
  count_ = 0;
}

}  // namespace creditflow::p2p
