#include "core/domain_link.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/scenario.hpp"

namespace precinct::core {

void WorldLedger::add_domain(const WorldLedger& domain) {
  if (domain.windows != windows) {
    throw std::invalid_argument(
        "WorldLedger: domains disagree on windows (" +
        std::to_string(windows) + " vs " + std::to_string(domain.windows) +
        ") — not one lockstep world");
  }
  for (const LedgerField& f : kLedgerFields) {
    if (f.count != &WorldLedger::windows) this->*f.count += domain.*f.count;
  }
}

void WorldLedger::audit() const {
  const std::uint64_t frames = frames_posted - frames_beyond_horizon;
  const std::uint64_t deltas = deltas_posted - deltas_beyond_horizon;
  if (frames_processed != frames || deltas_processed != deltas) {
    throw std::logic_error(
        "cross-domain conservation violated: frames processed " +
        std::to_string(frames_processed) + " of " + std::to_string(frames) +
        ", deltas processed " + std::to_string(deltas_processed) + " of " +
        std::to_string(deltas) + " (posted minus beyond horizon)");
  }
}

DomainLink::DomainLink(Scenario& replica, std::uint32_t domain,
                       const std::vector<std::uint32_t>& owner)
    : replica_(replica),
      domain_(domain),
      n_domains_(replica.config().regions_x),
      horizon_s_(replica.config().end_time_s()) {
  net::WorldShardBinding binding;
  binding.domain = domain;
  binding.n_domains = n_domains_;
  binding.owner = owner.data();
  binding.coupler = this;
  replica.network().bind_world_shard(binding);
  ShardView view;
  view.domain = domain;
  view.n_domains = n_domains_;
  view.owner = owner.data();
  replica.engine().set_shard_view(view);
}

bool DomainLink::beyond_horizon(double due) const {
  return due > horizon_s_ || (due == horizon_s_ && window_end() >= horizon_s_);
}

void DomainLink::post_frame(std::uint32_t dst_domain, double due,
                            const net::Packet& packet, bool is_unicast,
                            net::NodeId next_hop) {
  if (dst_domain >= n_domains_ || dst_domain == domain_) {
    throw std::logic_error("DomainLink: frame for bad domain " +
                           std::to_string(dst_domain));
  }
  // The conservative bound: the destination merges this at the current
  // window's end, so an earlier due would land in its past.
  if (due < window_end()) {
    throw std::logic_error("DomainLink: frame due " + std::to_string(due) +
                           " precedes the window end " +
                           std::to_string(window_end()) +
                           " (latency below the lookahead)");
  }
  ++ledger_.frames_posted;
  if (beyond_horizon(due)) ++ledger_.frames_beyond_horizon;
  send(dst_domain, transport::FrameMsg{due, is_unicast, next_hop, packet});
}

template <typename Delta>
void DomainLink::fan_out(Delta delta, double now) {
  // One halo delta reaches every other domain at the current window
  // boundary, the earliest due the conservative bound admits; while idle
  // that is `now` itself, so init-time deltas merge before the first
  // window.
  delta.due = std::max(now, window_end());
  const bool beyond = beyond_horizon(delta.due);
  const transport::DataMsg msg = delta;
  for (std::uint32_t dst = 0; dst < n_domains_; ++dst) {
    if (dst == domain_) continue;
    ++ledger_.deltas_posted;
    if (beyond) ++ledger_.deltas_beyond_horizon;
    send(dst, msg);
  }
}

void DomainLink::post_liveness(net::NodeId node, bool alive, double now) {
  fan_out(transport::LivenessMsg{0.0, node, alive}, now);
}

void DomainLink::post_region(net::NodeId node, geo::RegionId region,
                             double now) {
  fan_out(transport::RegionMsg{0.0, node, region}, now);
}

void DomainLink::post_catalog_update(geo::Key key, std::uint64_t version,
                                     double now) {
  // `now`, the write instant in this domain, becomes every replica's
  // last_update_s, so all catalogs agree on when the version was written.
  fan_out(transport::CatalogMsg{0.0, key, version, now}, now);
}

void DomainLink::apply(const transport::FrameMsg& m) {
  ++ledger_.frames_processed;
  net::WirelessNet& radio = replica_.network();
  if (m.is_unicast) {
    radio.deliver_remote_unicast(m.packet, m.next_hop);
  } else {
    radio.deliver_remote_broadcast(m.packet);
  }
}

void DomainLink::apply(const transport::LivenessMsg& m) {
  ++ledger_.deltas_processed;
  replica_.network().apply_remote_liveness(m.node, m.alive);
}

void DomainLink::apply(const transport::RegionMsg& m) {
  ++ledger_.deltas_processed;
  replica_.network().apply_remote_region(m.node, m.region);
}

void DomainLink::apply(const transport::CatalogMsg& m) {
  ++ledger_.deltas_processed;
  replica_.catalog().observe_update(m.key, m.version, m.written_at);
}

}  // namespace precinct::core
