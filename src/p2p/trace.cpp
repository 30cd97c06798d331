#include "p2p/trace.hpp"

namespace creditflow::p2p {

void TransactionTrace::set_keep_records(bool keep) {
  keep_records_ = keep;
  if (keep) enabled_ = true;
}

void TransactionTrace::record_full(double time, PeerId buyer, PeerId seller,
                                   std::uint64_t chunk, Credits price) {
  pair_flows_[pair_key(buyer, seller)] += price;
  if (keep_records_) {
    records_.push_back(TransactionRecord{time, buyer, seller, chunk, price});
  }
}

}  // namespace creditflow::p2p
