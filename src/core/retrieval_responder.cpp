// RetrievalScheme — responder side: the kRequest and kResponse receive
// paths, serving requests out of local copies (with consistency
// validation, Fig 3) and the response path back to the requester.
#include "core/retrieval_scheme.hpp"

#include "core/consistency_scheme.hpp"

namespace precinct::core {

void RetrievalScheme::handle_request(net::NodeId self,
                                     const net::Packet& packet) {
  if (self == packet.origin) return;
  switch (packet.mode) {
    case net::RouteMode::kRegionFlood:
      handle_request_region_flood(self, packet);
      return;
    case net::RouteMode::kGeographic:
      handle_request_geographic(self, packet);
      return;
    case net::RouteMode::kNetworkFlood:
      handle_request_network_flood(self, packet);
      return;
  }
}

void RetrievalScheme::handle_request_region_flood(net::NodeId self,
                                                  const net::Packet& packet) {
  if (!ctx_.flood.mark_seen(self, packet.id)) return;
  // Peers outside the destination region drop without processing (§2.2).
  if (ctx_.peers[self].region != packet.dest_region) return;
  const EngineContext::Copy copy = ctx_.find_copy(self, packet.key);
  if (copy.entry != nullptr && !copy.entry->invalidated) {
    // A flood scoped to the requester's own region is the local probe:
    // any answer there is a regional (local) hit.  Otherwise this is
    // the localized flood inside the home/replica region.
    const bool local_probe =
        packet.dest_region == ctx_.regions.containing(packet.origin_location);
    HitClass hit_class;
    if (local_probe) {
      hit_class = HitClass::kRegionalCache;
    } else if (packet.dest_region ==
               ctx_.hash.home_region(packet.key, ctx_.regions)) {
      hit_class = HitClass::kHomeRegion;
    } else {
      hit_class = HitClass::kReplicaRegion;
    }
    if (copy.is_custody) {
      send_response(self, packet, *copy.entry, hit_class);
    } else {
      serve_from_copy(self, packet, *copy.entry, hit_class);
    }
    return;
  }
  ctx_.flood_forward(self, packet);
}

void RetrievalScheme::handle_request_network_flood(net::NodeId self,
                                                   const net::Packet& packet) {
  if (!ctx_.flood.mark_seen(self, packet.id)) return;
  const EngineContext::Copy copy = ctx_.find_copy(self, packet.key);
  if (copy.entry != nullptr && !copy.entry->invalidated) {
    if (copy.is_custody) {
      send_response(self, packet, *copy.entry, HitClass::kHomeRegion);
    } else {
      serve_from_copy(self, packet, *copy.entry, HitClass::kRegionalCache);
    }
    return;
  }
  ctx_.flood_forward(self, packet);
}

void RetrievalScheme::handle_request_geographic(net::NodeId self,
                                                const net::Packet& packet) {
  // En-route serving from the cumulative cache (§3.1).
  const EngineContext::Copy copy = ctx_.find_copy(self, packet.key);
  if (copy.entry != nullptr && !copy.entry->invalidated) {
    if (copy.is_custody) {
      send_response(self, packet, *copy.entry,
                    ctx_.peers[self].region ==
                            ctx_.hash.home_region(packet.key, ctx_.regions)
                        ? HitClass::kHomeRegion
                        : HitClass::kReplicaRegion);
    } else {
      serve_from_copy(self, packet, *copy.entry, HitClass::kEnRoute);
    }
    return;
  }
  if (ctx_.peers[self].region == packet.dest_region) {
    // First node inside the destination region: become the broadcast
    // point and flood locally (§2.2).
    net::PacketRef scoped = ctx_.net.make_ref(packet);
    scoped->mode = net::RouteMode::kRegionFlood;
    scoped->ttl = ctx_.config.region_flood_ttl;
    scoped->src = self;
    scoped->id = ctx_.net.next_packet_id();
    ctx_.flood.mark_seen(self, scoped->id);
    ctx_.net.broadcast(std::move(scoped));
    return;
  }
  ctx_.forward_geographic(self, packet);
}

void RetrievalScheme::serve_from_copy(net::NodeId self,
                                      const net::Packet& request,
                                      const cache::CacheEntry& entry,
                                      HitClass hit_class) {
  // Fig 3's pull check runs at the peer holding the copy: validate an
  // expired/unvalidated copy against the home region before serving, so
  // the refreshed TTR benefits every later request hitting this copy.
  const double ttr_remaining = entry.ttr_expiry_s - ctx_.sim.now();
  if (!ctx_.consistency->needs_validation(ttr_remaining)) {
    send_response(self, request, entry, hit_class);
    return;
  }
  const std::uint64_t poll_id = ctx_.next_correlation_id();
  if (!ctx_.consistency->send_poll(self, entry.key, poll_id, entry.version)) {
    send_response(self, request, entry, hit_class);
    return;
  }
  ResponderPoll poll;
  poll.responder = self;
  poll.request = request;
  poll.hit_class = hit_class;
  poll.timeout =
      ctx_.sim.schedule(ctx_.config.remote_timeout_s, [this, poll_id] {
        // Home region unreachable: stay silent — the requester's own phase
        // timeout escalates the search instead of us serving unvalidated
        // data.
        responder_polls_.erase(poll_id);
      });
  responder_polls_.emplace(poll_id, poll);
}

void RetrievalScheme::finish_responder_poll(std::uint64_t poll_id) {
  const auto it = responder_polls_.find(poll_id);
  if (it == responder_polls_.end()) return;
  const ResponderPoll poll = it->second;
  responder_polls_.erase(it);
  ctx_.sim.cancel(poll.timeout);
  // Serve whatever the copy holds now (the poll reply refreshed it); the
  // copy may also have been evicted or invalidated meanwhile.
  const EngineContext::Copy copy =
      ctx_.find_copy(poll.responder, poll.request.key);
  if (copy.entry != nullptr && !copy.entry->invalidated) {
    send_response(poll.responder, poll.request, *copy.entry, poll.hit_class);
  }
}

void RetrievalScheme::send_response(net::NodeId self,
                                    const net::Packet& request,
                                    const cache::CacheEntry& entry,
                                    HitClass hit_class) {
  // Update the serving copy's utility (Figure 1: "Update utility value of
  // d in Presp") with the distance to the requesting region.
  const double reg_dst =
      ctx_.region_distance(ctx_.peers[self].region,
                           ctx_.regions.containing(request.origin_location)) /
      ctx_.region_diameter;
  ctx_.peers[self].cache.touch(entry.key, ctx_.sim.now(), reg_dst);

  net::Packet response =
      ctx_.make_packet(net::PacketKind::kResponse, self, entry.key);
  response.mode = net::RouteMode::kGeographic;
  response.dest_node = request.origin;
  response.dest_location = request.origin_location;
  response.ttl = ctx_.config.max_route_hops;
  response.request_id = request.request_id;
  response.version = entry.version;
  response.size_bytes = net::kHeaderBytes + entry.size_bytes;
  response.hit_class = static_cast<std::uint8_t>(hit_class);
  response.responder_region = ctx_.peers[self].region;
  if (hit_class == HitClass::kHomeRegion ||
      hit_class == HitClass::kReplicaRegion) {
    response.ttr_s = ctx_.consistency->custodian_ttr_s(entry.key);
  } else {
    response.ttr_s = entry.ttr_expiry_s - ctx_.sim.now();
  }
  ctx_.forward_geographic(self, response);
}

void RetrievalScheme::handle_response(net::NodeId self,
                                      const net::Packet& packet) {
  if (self == packet.dest_node) {
    // A retransmitted lookup can solicit several answers: only the first
    // completes the request, later arrivals are counted and dropped.
    if (pending_.find(packet.request_id) == pending_.end()) {
      if (ctx_.measuring) ++ctx_.metrics.duplicate_responses_suppressed;
      return;
    }
    // Copies are validated by their owners before being served
    // (serve_from_copy), so the requester accepts responses as-is.
    complete_request(packet.request_id,
                     static_cast<HitClass>(packet.hit_class), packet.version,
                     packet.size_bytes - net::kHeaderBytes, packet.ttr_s,
                     packet.responder_region);
    return;
  }
  ctx_.forward_geographic(self, packet);
}

}  // namespace precinct::core
