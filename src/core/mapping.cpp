#include "core/mapping.hpp"

#include <unordered_map>

#include "util/assert.hpp"

namespace creditflow::core {

namespace {

/// Compress alive peer ids to dense indices 0..n-1.
std::unordered_map<p2p::PeerId, std::uint32_t> dense_index(
    const std::vector<p2p::PeerId>& alive) {
  std::unordered_map<p2p::PeerId, std::uint32_t> index;
  index.reserve(alive.size());
  for (std::uint32_t k = 0; k < alive.size(); ++k) index[alive[k]] = k;
  return index;
}

}  // namespace

JacksonMapping mapping_from_trace(const p2p::StreamingProtocol& protocol,
                                  double now) {
  const auto& trace = protocol.trace();
  CF_EXPECTS_MSG(trace.enabled(), "transaction trace was not enabled");
  CF_EXPECTS_MSG(!trace.pair_flows().empty(), "no transactions recorded");

  const auto alive = protocol.alive_peers();
  CF_EXPECTS(alive.size() >= 2);
  const auto index = dense_index(alive);
  const std::size_t n = alive.size();

  JacksonMapping m;
  m.transfer = queueing::TransferMatrix(n);
  m.service_rates.resize(n);
  m.arrival_rates.assign(n, 0.0);

  // Row flows: credits each buyer paid to each seller.
  std::vector<std::vector<queueing::RoutingEntry>> rows(n);
  std::vector<double> row_totals(n, 0.0);
  for (const auto& [key, credits] : trace.pair_flows()) {
    const auto buyer = static_cast<p2p::PeerId>(key >> 32);
    const auto seller = static_cast<p2p::PeerId>(key & 0xffffffffULL);
    const auto bi = index.find(buyer);
    const auto si = index.find(seller);
    if (bi == index.end() || si == index.end()) continue;  // departed peers
    rows[bi->second].push_back(
        {si->second, static_cast<double>(credits)});
    row_totals[bi->second] += static_cast<double>(credits);
  }
  for (std::uint32_t k = 0; k < n; ++k) {
    if (row_totals[k] <= 0.0) {
      m.transfer.set_row(k, {{k, 1.0}});
      continue;
    }
    for (auto& e : rows[k]) e.probability /= row_totals[k];
    m.transfer.set_row(k, std::move(rows[k]));
  }

  const p2p::PeerTable& peers = protocol.peer_table();
  for (std::uint32_t k = 0; k < n; ++k) {
    const p2p::PeerId id = alive[k];
    m.service_rates[k] = peers.base_spend_rate(id);
    const double age = now - peers.join_time(id);
    m.arrival_rates[k] =
        age > 0.0 ? static_cast<double>(peers.credits_earned(id)) / age : 0.0;
  }
  // A peer that never earned would zero out the utilization; floor λ at a
  // tiny epsilon so Eq. (2) stays well-defined.
  for (auto& l : m.arrival_rates) {
    if (l <= 0.0) l = 1e-12;
  }
  m.utilization =
      queueing::normalized_utilization(m.arrival_rates, m.service_rates);
  m.total_credits = protocol.ledger().circulating();
  m.average_wealth =
      static_cast<double>(m.total_credits) / static_cast<double>(n);
  return m;
}

}  // namespace creditflow::core
