// ConsistencyScheme (paper §4): updates and their per-mode propagation,
// the push phase with custodian acknowledgements, the adaptive pull
// (polls + TTR), Plain-Push invalidations.
#include "core/consistency_scheme.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/retrieval_scheme.hpp"

namespace precinct::core {

void ConsistencyScheme::initiate_update(net::NodeId peer, geo::Key key) {
  const std::uint64_t version = ctx_.catalog.apply_update(key, ctx_.sim.now());
  // World sharding: every other domain's catalog replica merges the bump
  // at the next window boundary, before any frame carrying the new
  // version can cross the cut (no-op in a single-catalog run).
  ctx_.net.announce_catalog_update(key, version);
  if (ctx_.measuring) ++ctx_.metrics.updates_initiated;
  PRECINCT_TRACE(ctx_.tracer, ctx_.sim.now(), sim::TraceCategory::kConsistency,
                 peer,
                 "update key " + std::to_string(key) + " -> v" +
                     std::to_string(version));

  // The updater's own copies reflect the write immediately.  When the
  // updater is itself the custodian, the TTR estimator observes the
  // update here (no push will arrive over the air).
  PeerState& p = ctx_.peers[peer];
  if (cache::CacheEntry* custody = p.cache.find_static_mutable(key)) {
    custody->version = version;
    ttr_.try_emplace(key, ctx_.config.ttr_alpha, ctx_.config.ttr_initial_s)
        .first->second.on_update(ctx_.sim.now());
  }
  p.cache.refresh(key, version, ctx_.sim.now());

  propagate_update(peer, key, version);
}

bool ConsistencyScheme::needs_validation(
    double ttr_remaining_s) const noexcept {
  switch (ctx_.config.consistency) {
    case consistency::Mode::kNone:
    case consistency::Mode::kPlainPush:
      // Pushed invalidations are Plain-Push's only staleness signal.
      return false;
    case consistency::Mode::kPullEveryTime:
      return true;  // validate on every cached serve
    case consistency::Mode::kPushAdaptivePull:
      return ttr_remaining_s <= 0.0;  // poll only after the TTR lapses
  }
  return false;
}

void ConsistencyScheme::propagate_update(net::NodeId peer, geo::Key key,
                                         std::uint64_t version) {
  switch (ctx_.config.consistency) {
    case consistency::Mode::kNone:
      return;
    case consistency::Mode::kPlainPush: {
      // Flood the update to the entire network (§1).  Carries the data so
      // custodians apply it; caches merely invalidate.
      net::Packet packet =
          ctx_.make_packet(net::PacketKind::kInvalidation, peer, key);
      packet.mode = net::RouteMode::kNetworkFlood;
      packet.ttl = ctx_.config.network_flood_ttl;
      packet.version = version;
      packet.size_bytes =
          net::kHeaderBytes + ctx_.catalog.item(key).size_bytes;
      ctx_.flood.mark_seen(peer, packet.id);
      ctx_.net.broadcast(packet);
      if (ctx_.config.request_retries > 0) {
        // Lossy-channel hardening: the flood is fire-and-forget, so one
        // erased frame can strand a custodian on an old version forever.
        // Back the flood up with the acknowledged (and retried) push path.
        push_to_key_regions(peer, key, version);
      }
      return;
    }
    case consistency::Mode::kPullEveryTime:
    case consistency::Mode::kPushAdaptivePull:
      push_to_key_regions(peer, key, version);
      return;
  }
}

void ConsistencyScheme::push_to_key_regions(net::NodeId peer, geo::Key key,
                                            std::uint64_t version) {
  for (const geo::RegionId region :
       ctx_.hash.key_regions(key, ctx_.regions, ctx_.config.replica_count)) {
    push_update_to_region(peer, key, region, version);
  }
}

void ConsistencyScheme::push_update_to_region(net::NodeId peer, geo::Key key,
                                              geo::RegionId region_id,
                                              std::uint64_t version) {
  if (ctx_.regions.find(region_id) == nullptr) return;
  // The updater may itself be this region's custodian — the write already
  // landed locally in initiate_update; pushing would only chase an ack
  // from a custodian that does not exist.
  if (ctx_.peers[peer].region == region_id &&
      ctx_.peers[peer].cache.find_static(key) != nullptr) {
    return;
  }
  const std::uint64_t push_id = ctx_.next_correlation_id();
  PendingPush push;
  push.updater = peer;
  push.key = key;
  push.region = region_id;
  push.version = version;
  push.retries_left = ctx_.config.push_retries;
  pending_pushes_.emplace(push_id, push);
  send_push_packet(push_id);
}

void ConsistencyScheme::send_push_packet(std::uint64_t push_id) {
  const auto it = pending_pushes_.find(push_id);
  if (it == pending_pushes_.end()) return;
  PendingPush& push = it->second;
  const geo::Region* region = ctx_.regions.find(push.region);
  if (region == nullptr || !ctx_.net.is_alive(push.updater)) {
    pending_pushes_.erase(it);
    return;
  }
  net::Packet packet =
      ctx_.make_packet(net::PacketKind::kUpdatePush, push.updater, push.key);
  packet.dest_region = push.region;
  packet.dest_location = region->center;
  packet.version = push.version;
  packet.request_id = push_id;
  packet.size_bytes =
      net::kHeaderBytes + ctx_.catalog.item(push.key).size_bytes;
  if (ctx_.peers[push.updater].region == push.region) {
    packet.mode = net::RouteMode::kRegionFlood;
    packet.ttl = ctx_.config.region_flood_ttl;
    ctx_.flood.mark_seen(push.updater, packet.id);
    ctx_.net.broadcast(packet);
  } else {
    packet.mode = net::RouteMode::kGeographic;
    packet.ttl = ctx_.config.max_route_hops;
    ctx_.forward_geographic(push.updater, packet);
  }
  // With retry hardening enabled the push waits back off exponentially
  // like the remote lookups; the default keeps the original fixed cadence
  // (and therefore the original event timing) bit-for-bit.
  const int attempt = ctx_.config.push_retries - push.retries_left;
  const double wait =
      ctx_.config.request_retries > 0
          ? ctx_.config.remote_timeout_s * std::exp2(attempt)
          : ctx_.config.remote_timeout_s;
  push.timeout =
      ctx_.sim.schedule(wait, [this, push_id] {
        const auto pit = pending_pushes_.find(push_id);
        if (pit == pending_pushes_.end()) return;
        if (pit->second.retries_left-- > 0) {
          if (ctx_.measuring) ++ctx_.metrics.retransmissions;
          send_push_packet(push_id);
        } else {
          PRECINCT_TRACE(ctx_.tracer, ctx_.sim.now(),
                         sim::TraceCategory::kConsistency,
                         pit->second.updater,
                         "push of key " + std::to_string(pit->second.key) +
                             " to region " +
                             std::to_string(pit->second.region) + " gave up");
          pending_pushes_.erase(pit);  // custodian unreachable; replica covers
        }
      });
}

void ConsistencyScheme::maybe_ack_push(net::NodeId self,
                                       const net::Packet& packet) {
  if (packet.request_id == 0 || packet.origin == self) return;
  net::Packet ack =
      ctx_.make_packet(net::PacketKind::kPushAck, self, packet.key);
  ack.mode = net::RouteMode::kGeographic;
  ack.dest_node = packet.origin;
  ack.dest_location = packet.origin_location;
  ack.ttl = ctx_.config.max_route_hops;
  ack.request_id = packet.request_id;
  ack.version = packet.version;
  ctx_.forward_geographic(self, ack);
}

void ConsistencyScheme::handle_push_ack(net::NodeId self,
                                        const net::Packet& packet) {
  if (self != packet.dest_node) {
    ctx_.forward_geographic(self, packet);
    return;
  }
  const auto it = pending_pushes_.find(packet.request_id);
  if (it == pending_pushes_.end()) return;  // duplicate ack
  ctx_.sim.cancel(it->second.timeout);
  pending_pushes_.erase(it);
}

bool ConsistencyScheme::apply_custodian_update(net::NodeId self,
                                               const net::Packet& packet) {
  PeerState& p = ctx_.peers[self];
  cache::CacheEntry* custody = p.cache.find_static_mutable(packet.key);
  if (custody == nullptr) return false;
  if (packet.version > custody->version) {
    custody->version = packet.version;
    // Fold the observed inter-update gap into the TTR (Eq. 2).
    ttr_.try_emplace(packet.key, ctx_.config.ttr_alpha,
                     ctx_.config.ttr_initial_s)
        .first->second.on_update(ctx_.sim.now());
  }
  return true;
}

void ConsistencyScheme::handle_update_push(net::NodeId self,
                                           const net::Packet& packet) {
  switch (packet.mode) {
    case net::RouteMode::kRegionFlood: {
      if (!ctx_.flood.mark_seen(self, packet.id)) return;
      if (ctx_.peers[self].region != packet.dest_region) return;
      if (apply_custodian_update(self, packet)) maybe_ack_push(self, packet);
      // Cached dynamic copies in the region refresh opportunistically.
      ctx_.peers[self].cache.refresh(
          packet.key, packet.version,
          ctx_.sim.now() + custodian_ttr_s(packet.key));
      ctx_.flood_forward(self, packet);
      return;
    }
    case net::RouteMode::kGeographic: {
      // The destination region's custodian may sit on the route itself
      // (Figure 2 only needs to "locate the peer which has d"): apply and
      // acknowledge en route.  A custodian of the *other* replica region
      // applies opportunistically but must not consume the push.
      if (apply_custodian_update(self, packet) &&
          ctx_.peers[self].region == packet.dest_region) {
        maybe_ack_push(self, packet);
        ctx_.peers[self].cache.refresh(
            packet.key, packet.version,
            ctx_.sim.now() + custodian_ttr_s(packet.key));
        return;
      }
      if (ctx_.peers[self].region == packet.dest_region) {
        net::PacketRef scoped = ctx_.net.make_ref(packet);
        scoped->mode = net::RouteMode::kRegionFlood;
        scoped->ttl = ctx_.config.region_flood_ttl;
        scoped->src = self;
        scoped->id = ctx_.net.next_packet_id();
        ctx_.flood.mark_seen(self, scoped->id);
        ctx_.peers[self].cache.refresh(
            scoped->key, scoped->version,
            ctx_.sim.now() + custodian_ttr_s(scoped->key));
        ctx_.net.broadcast(std::move(scoped));
        return;
      }
      ctx_.forward_geographic(self, packet);
      return;
    }
    case net::RouteMode::kNetworkFlood:
      return;  // pushes are never network floods
  }
}

double ConsistencyScheme::custodian_ttr_s(geo::Key key) const {
  const auto it = ttr_.find(key);
  return it == ttr_.end() ? ctx_.config.ttr_initial_s : it->second.ttr_s();
}

bool ConsistencyScheme::send_poll(net::NodeId from, geo::Key key,
                                  std::uint64_t correlation_id,
                                  std::uint64_t known_version) {
  const geo::RegionId home = ctx_.hash.home_region(key, ctx_.regions);
  const geo::Region* region = ctx_.regions.find(home);
  if (region == nullptr) return false;
  if (ctx_.measuring) ++ctx_.metrics.polls_sent;
  PRECINCT_TRACE(ctx_.tracer, ctx_.sim.now(), sim::TraceCategory::kConsistency,
                 from, "poll home region for key " + std::to_string(key));

  net::Packet packet = ctx_.make_packet(net::PacketKind::kPoll, from, key);
  packet.dest_region = home;
  packet.dest_location = region->center;
  packet.request_id = correlation_id;
  packet.version = known_version;
  if (ctx_.peers[from].region == home) {
    // Already inside the home region: poll via a localized flood.
    packet.mode = net::RouteMode::kRegionFlood;
    packet.ttl = ctx_.config.region_flood_ttl;
    ctx_.flood.mark_seen(from, packet.id);
    ctx_.net.broadcast(packet);
  } else {
    packet.mode = net::RouteMode::kGeographic;
    packet.ttl = ctx_.config.max_route_hops;
    ctx_.forward_geographic(from, packet);
  }
  return true;
}

void ConsistencyScheme::handle_poll(net::NodeId self,
                                    const net::Packet& packet) {
  const auto reply_from_custodian = [&](const cache::CacheEntry& custody) {
    net::Packet reply =
        ctx_.make_packet(net::PacketKind::kPollReply, self, packet.key);
    reply.mode = net::RouteMode::kGeographic;
    reply.dest_node = packet.origin;
    reply.dest_location = packet.origin_location;
    reply.ttl = ctx_.config.max_route_hops;
    reply.request_id = packet.request_id;
    reply.version = custody.version;
    reply.ttr_s = custodian_ttr_s(packet.key);
    // A stale poller needs the new data: the reply carries it (missed
    // updates are fetched, Figure 3).
    reply.size_bytes = custody.version != packet.version
                           ? net::kHeaderBytes + custody.size_bytes
                           : net::kHeaderBytes;
    ctx_.forward_geographic(self, reply);
  };

  switch (packet.mode) {
    case net::RouteMode::kRegionFlood: {
      if (!ctx_.flood.mark_seen(self, packet.id)) return;
      if (ctx_.peers[self].region != packet.dest_region) return;
      if (const cache::CacheEntry* custody =
              ctx_.peers[self].cache.find_static(packet.key)) {
        reply_from_custodian(*custody);
        return;
      }
      ctx_.flood_forward(self, packet);
      return;
    }
    case net::RouteMode::kGeographic: {
      // An en-route custodian of the polled region answers directly.
      if (const cache::CacheEntry* custody =
              ctx_.peers[self].cache.find_static(packet.key);
          custody != nullptr &&
          ctx_.peers[self].region == packet.dest_region) {
        reply_from_custodian(*custody);
        return;
      }
      if (ctx_.peers[self].region == packet.dest_region) {
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
      return;
    }
    case net::RouteMode::kNetworkFlood:
      return;
  }
}

void ConsistencyScheme::handle_poll_reply(net::NodeId self,
                                          const net::Packet& packet) {
  if (self != packet.dest_node) {
    ctx_.forward_geographic(self, packet);
    return;
  }
  // The reply always refreshes the local copy's consistency state; when
  // the poller was stale the reply carried the fresh data too.
  ctx_.peers[self].cache.refresh(packet.key, packet.version,
                                 ctx_.sim.now() + std::max(0.0, packet.ttr_s));
  // Hand the correlation back to the retrieval scheme: either a requester
  // validating its own copy or a responder-side validation poll.
  ctx_.retrieval->on_poll_reply(packet);
}

void ConsistencyScheme::handle_invalidation(net::NodeId self,
                                            const net::Packet& packet) {
  if (!ctx_.flood.mark_seen(self, packet.id)) return;
  PeerState& p = ctx_.peers[self];
  // Custodians apply the pushed update; plain caches invalidate (§1).
  if (cache::CacheEntry* custody = p.cache.find_static_mutable(packet.key)) {
    if (packet.version > custody->version) custody->version = packet.version;
  }
  if (const cache::CacheEntry* cached = p.cache.find(packet.key)) {
    if (cached->version < packet.version) p.cache.invalidate(packet.key);
  }
  ctx_.flood_forward(self, packet);
}

}  // namespace precinct::core
