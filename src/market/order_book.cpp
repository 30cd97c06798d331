#include "market/order_book.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace creditflow::market {

OrderBook::OrderBook(std::size_t max_peers, Credits max_price)
    : asks_(max_peers),
      bids_(max_peers),
      level_count_(static_cast<std::size_t>(max_price) + 1, 0),
      max_price_(max_price) {
  CF_EXPECTS(max_peers > 0);
  CF_EXPECTS(max_price >= 1);
}

void OrderBook::post_ask(PeerId seller, Credits price,
                         std::uint32_t quantity) {
  CF_EXPECTS(seller < asks_.size());
  if (quantity == 0) {
    (void)cancel_ask(seller);
    return;
  }
  const Credits clamped = std::clamp<Credits>(price, 1, max_price_);
  AskCell& cell = asks_[seller];
  if (cell.quantity > 0) {
    --level_count_[cell.price];  // reprice: leave the old level
  } else {
    ++depth_;
  }
  cell.price = clamped;
  cell.quantity = quantity;
  cell.seq = next_seq_++;
  ++level_count_[clamped];
}

bool OrderBook::cancel_ask(PeerId seller) {
  CF_EXPECTS(seller < asks_.size());
  AskCell& cell = asks_[seller];
  if (cell.quantity == 0) return false;
  cell.quantity = 0;
  --level_count_[cell.price];
  --depth_;
  return true;
}

std::uint32_t OrderBook::fill_one(PeerId seller) {
  AskCell& cell = asks_[seller];
  CF_EXPECTS_MSG(cell.quantity > 0, "fill_one on a seller with no ask");
  if (--cell.quantity == 0) {
    // Drained: the ask expires in place.
    --level_count_[cell.price];
    --depth_;
  }
  return cell.quantity;
}

void OrderBook::post_bid(PeerId buyer, Credits limit) {
  CF_EXPECTS(buyer < bids_.size());
  bids_[buyer] = BidCell{limit, true};
}

bool OrderBook::cancel_bid(PeerId buyer) {
  CF_EXPECTS(buyer < bids_.size());
  BidCell& cell = bids_[buyer];
  if (!cell.resting) return false;
  cell.resting = false;
  return true;
}

Credits OrderBook::best_price(Credits from) const {
  while (from <= max_price_ && level_count_[from] == 0) ++from;
  return from;
}

Credits OrderBook::spread() const {
  const Credits lo = best_price();
  if (lo > max_price_) return 0;
  Credits hi = max_price_;
  while (level_count_[hi] == 0) --hi;
  return hi - lo;
}

}  // namespace creditflow::market
