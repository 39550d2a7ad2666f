// RetrievalScheme — the search itself, the one place the retrieval kinds
// differ.  PReCinCt (§2.2, §3.1): regional probe of the cumulative cache,
// then the geographically hashed home region, then the replica fallback
// chain.  The §6.2 baselines: one network-wide flood (flooding) or
// TTL-doubling floods (expanding ring).
#include "core/retrieval_scheme.hpp"

#include <cmath>
#include <string>

#include "routing/expanding_ring.hpp"

namespace precinct::core {

void RetrievalScheme::start_search(std::uint64_t request_id) {
  switch (ctx_.config.retrieval) {
    case RetrievalKind::kPrecinct: {
      // With no dynamic cache there is no cumulative cache to probe (the
      // paper's §5.2.2 analysis assumes exactly this); go straight to the
      // home region.  Keys homed in the requester's own region are still
      // found: the remote lookup floods locally when already inside.
      const net::NodeId peer = pending_.at(request_id).requester;
      if (ctx_.peers[peer].cache.capacity_bytes() == 0) {
        start_remote_lookup(request_id, 0);
      } else {
        start_regional_probe(request_id);
      }
      return;
    }
    case RetrievalKind::kFlooding:
    case RetrievalKind::kExpandingRing:
      start_flood(request_id);
      return;
  }
}

void RetrievalScheme::restart_search(std::uint64_t request_id) {
  switch (ctx_.config.retrieval) {
    case RetrievalKind::kPrecinct:
      start_regional_probe(request_id);
      return;
    case RetrievalKind::kFlooding:
    case RetrievalKind::kExpandingRing:
      start_flood(request_id);
      return;
  }
}

void RetrievalScheme::on_timeout(std::uint64_t request_id, Phase phase) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end() || it->second.phase != phase) return;
  Pending& pending = it->second;
  switch (phase) {
    case Phase::kValidate:
      // The home region did not answer the poll: treat the copy as a miss
      // and fetch through the normal search path (never serve a copy the
      // scheme demanded be validated).
      restart_search(request_id);
      return;
    case Phase::kRegional:
      // Home lookup next; start_remote_lookup itself skips regions the
      // probe already flooded.
      start_remote_lookup(request_id, 0);
      return;
    case Phase::kHome:
    case Phase::kReplica:
      // Lossy-channel hardening: retransmit the same lookup (with backoff)
      // up to the retry budget before escalating.  With the default budget
      // of 0 this is the paper's fire-and-escalate behavior.
      if (pending.attempts < ctx_.config.request_retries) {
        ++pending.attempts;
        if (pending.measured) ++ctx_.metrics.retransmissions;
        PRECINCT_TRACE(ctx_.tracer, ctx_.sim.now(),
                       sim::TraceCategory::kProtocol, pending.requester,
                       "request #" + std::to_string(request_id) +
                           " retransmit " + std::to_string(pending.attempts) +
                           " (lookup " +
                           std::to_string(pending.lookup_index) + ")");
        send_remote_lookup(request_id);
        return;
      }
      // §2.4 fallback chain: try the next replica region (fails when
      // exhausted).
      start_remote_lookup(request_id, pending.lookup_index + 1);
      return;
    case Phase::kRing:
      ++pending.ring_index;
      start_flood(request_id);
      return;
    case Phase::kFlood:
      fail_request(request_id);
      return;
  }
}

void RetrievalScheme::start_regional_probe(std::uint64_t request_id) {
  Pending& pending = pending_.at(request_id);
  pending.phase = Phase::kRegional;
  pending.probed_own_region = true;
  const net::NodeId peer = pending.requester;

  net::Packet packet =
      ctx_.make_packet(net::PacketKind::kRequest, peer, pending.key);
  packet.mode = net::RouteMode::kRegionFlood;
  packet.dest_region = ctx_.peers[peer].region;
  packet.ttl = ctx_.config.region_flood_ttl;
  packet.request_id = request_id;
  ctx_.flood.mark_seen(peer, packet.id);
  ctx_.net.broadcast(packet);

  pending.timeout =
      ctx_.sim.schedule(ctx_.config.regional_timeout_s, [this, request_id] {
        on_timeout(request_id, Phase::kRegional);
      });
}

void RetrievalScheme::start_remote_lookup(std::uint64_t request_id,
                                          std::size_t lookup_index) {
  Pending& pending = pending_.at(request_id);
  const net::NodeId peer = pending.requester;
  const auto targets = ctx_.hash.key_regions(pending.key, ctx_.regions,
                                             ctx_.config.replica_count);
  // Skip regions the regional probe already flooded (the requester's own
  // region) and any that vanished from the table.
  while (lookup_index < targets.size() &&
         ((pending.probed_own_region &&
           targets[lookup_index] == ctx_.peers[peer].region) ||
          ctx_.regions.find(targets[lookup_index]) == nullptr)) {
    ++lookup_index;
  }
  if (lookup_index >= targets.size()) {
    fail_request(request_id);
    return;
  }
  pending.lookup_index = lookup_index;
  pending.phase = lookup_index == 0 ? Phase::kHome : Phase::kReplica;
  pending.attempts = 0;
  send_remote_lookup(request_id);
}

void RetrievalScheme::send_remote_lookup(std::uint64_t request_id) {
  Pending& pending = pending_.at(request_id);
  const net::NodeId peer = pending.requester;
  const auto targets = ctx_.hash.key_regions(pending.key, ctx_.regions,
                                             ctx_.config.replica_count);
  const geo::RegionId target = targets[pending.lookup_index];
  const geo::Region* region = ctx_.regions.find(target);
  if (region == nullptr) {
    // The region vanished between retries (dynamic reconfiguration);
    // escalate instead of routing at nothing.
    start_remote_lookup(request_id, pending.lookup_index + 1);
    return;
  }

  net::Packet packet =
      ctx_.make_packet(net::PacketKind::kRequest, peer, pending.key);
  packet.dest_region = target;
  packet.dest_location = region->center;
  packet.request_id = request_id;
  if (ctx_.peers[peer].region == target) {
    // Already inside the target region: the requester itself is the
    // broadcast point for the localized flood (§2.2).
    packet.mode = net::RouteMode::kRegionFlood;
    packet.ttl = ctx_.config.region_flood_ttl;
    ctx_.flood.mark_seen(peer, packet.id);
    ctx_.net.broadcast(packet);
  } else {
    packet.mode = net::RouteMode::kGeographic;
    packet.ttl = ctx_.config.max_route_hops;
    ctx_.forward_geographic(peer, packet);
  }

  const Phase phase = pending.phase;
  // Attempt k waits 2^k * remote_timeout_s; at k == 0 that is exactly
  // remote_timeout_s, so a zero retry budget reproduces the original
  // timing bit-for-bit.
  const double wait =
      ctx_.config.remote_timeout_s * std::exp2(pending.attempts);
  pending.timeout = ctx_.sim.schedule(wait, [this, request_id, phase] {
    on_timeout(request_id, phase);
  });
}

void RetrievalScheme::start_flood(std::uint64_t request_id) {
  Pending& pending = pending_.at(request_id);
  const net::NodeId peer = pending.requester;
  int ttl = ctx_.config.network_flood_ttl;
  double wait = ctx_.config.remote_timeout_s;
  if (ctx_.config.retrieval == RetrievalKind::kExpandingRing) {
    pending.phase = Phase::kRing;
    const auto ttls = routing::expanding_ring_ttls(ctx_.config.ring);
    if (pending.ring_index >= static_cast<int>(ttls.size())) {
      fail_request(request_id);
      return;
    }
    ttl = ttls[static_cast<std::size_t>(pending.ring_index)];
    wait = ctx_.config.ring.retry_wait_s;
  } else {
    pending.phase = Phase::kFlood;
  }
  net::Packet packet =
      ctx_.make_packet(net::PacketKind::kRequest, peer, pending.key);
  packet.mode = net::RouteMode::kNetworkFlood;
  packet.ttl = ttl;
  packet.request_id = request_id;
  ctx_.flood.mark_seen(peer, packet.id);
  ctx_.net.broadcast(packet);

  const Phase phase = pending.phase;
  pending.timeout = ctx_.sim.schedule(wait, [this, request_id, phase] {
    on_timeout(request_id, phase);
  });
}

}  // namespace precinct::core
