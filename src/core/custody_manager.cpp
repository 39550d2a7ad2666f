#include "core/custody_manager.hpp"

#include <algorithm>
#include <limits>
#include <ranges>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/consistency_scheme.hpp"
#include "core/workload_driver.hpp"

namespace precinct::core {

void CustodyManager::register_handlers(net::PacketDispatcher& dispatch) {
  dispatch.set(net::PacketKind::kKeyTransfer,
               [this](net::NodeId self, const net::Packet& packet) {
                 handle_key_transfer(self, packet);
               });
  dispatch.set(net::PacketKind::kRegionUpdate,
               [this](net::NodeId self, const net::Packet& packet) {
                 // Region-table dissemination: adopt and rebroadcast (flood
                 // with duplicate suppression, like every other
                 // network-wide flood).
                 if (ctx_.flood.mark_seen(self, packet.id)) {
                   ctx_.flood_forward(self, packet);
                 }
               });
}

void CustodyManager::place_initial_copies() {
  // Deployment routes through the same region-scoped flood the protocol
  // uses, so custody must land in the region's *flood-connected main
  // component*: pick the largest intra-region component and take its
  // member nearest the center.  This is the network's initial state, not
  // protocol traffic.
  const auto region_components = [&](geo::RegionId region) {
    std::vector<std::vector<net::NodeId>> components;
    std::vector<net::NodeId> members;
    const auto& ns = ctx_.net.node_state();
    const std::uint8_t* alive = ns.alive_data();
    const geo::RegionId* reg = ns.region_data();
    for (net::NodeId i = 0; i < ctx_.net.node_count(); ++i) {
      if (alive[i] && reg[i] == region) members.push_back(i);
    }
    std::vector<char> visited(members.size(), 0);
    for (std::size_t s = 0; s < members.size(); ++s) {
      if (visited[s]) continue;
      std::vector<net::NodeId> component;
      std::vector<std::size_t> stack{s};
      visited[s] = 1;
      while (!stack.empty()) {
        const std::size_t u = stack.back();
        stack.pop_back();
        component.push_back(members[u]);
        for (std::size_t v = 0; v < members.size(); ++v) {
          if (!visited[v] && ctx_.net.in_range(members[u], members[v])) {
            visited[v] = 1;
            stack.push_back(v);
          }
        }
      }
      components.push_back(std::move(component));
    }
    return components;
  };
  // Cache per-region placements: the main component is a property of the
  // initial topology, not of the key.
  std::unordered_map<geo::RegionId, std::vector<net::NodeId>> main_component;
  for (const geo::Region& r : ctx_.regions.regions()) {
    auto components = region_components(r.id);
    std::size_t best = 0;
    for (std::size_t i = 1; i < components.size(); ++i) {
      if (components[i].size() > components[best].size()) best = i;
    }
    main_component.emplace(
        r.id, components.empty() ? std::vector<net::NodeId>{}
                                 : std::move(components[best]));
  }
  std::vector<net::NodeId> placed;  // this key's holders so far
  for (std::size_t rank = 0; rank < ctx_.catalog.size(); ++rank) {
    const workload::DataItem& item = ctx_.catalog.item_at(rank);
    // Custody-uniqueness guard: a candidate residing in a region that
    // already hosts one of this key's holders is skipped — the
    // global-nearest fallback for an empty region must not co-locate two
    // custodians of the same key.
    const auto usable = [&](net::NodeId i) {
      for (const net::NodeId h : placed) {
        if (i == h || ctx_.peers[i].region == ctx_.peers[h].region) {
          return false;
        }
      }
      return true;
    };
    // Heterogeneous fleets: prefer fixed roadside units as custodians —
    // they never migrate, so custody placed on them needs no handoffs.
    // With no fixed class every candidate shares one tier and the choice
    // degenerates to today's nearest-to-center rule.
    const bool prefer_fixed = ctx_.config.has_fixed_nodes();
    const auto& node_state = ctx_.net.node_state();
    const auto place = [&](geo::RegionId region) -> net::NodeId {
      const geo::Region* r = ctx_.regions.find(region);
      if (r == nullptr) return net::kNoNode;
      net::NodeId best = net::kNoNode;
      int best_tier = 2;
      double best_d = std::numeric_limits<double>::infinity();
      const auto consider = [&](net::NodeId i) {
        const int tier = prefer_fixed && node_state.fixed(i) ? 0 : 1;
        const double d = geo::distance(ctx_.net.position(i), r->center);
        if (tier < best_tier || (tier == best_tier && d < best_d)) {
          best_tier = tier;
          best_d = d;
          best = i;
        }
      };
      const auto it = main_component.find(region);
      if (it != main_component.end()) {
        for (const net::NodeId i : it->second) {
          if (usable(i)) consider(i);
        }
      }
      if (best != net::kNoNode) return best;
      // Region empty (or holds only unusable peers): global nearest
      // fallback over peers whose regions are still custody-free.
      for (net::NodeId i = 0; i < ctx_.net.node_count(); ++i) {
        if (!ctx_.net.is_alive(i) || !usable(i)) continue;
        consider(i);
      }
      return best;
    };
    cache::CacheEntry entry;
    entry.key = item.key;
    entry.size_bytes = item.size_bytes;
    entry.version = item.version;
    placed.clear();
    for (const geo::RegionId region : ctx_.hash.key_regions(
             item.key, ctx_.regions, ctx_.config.replica_count)) {
      const net::NodeId holder = place(region);
      if (holder != net::kNoNode) {
        // The placement plan is a pure function of the initial topology,
        // so every world-sharded domain computes the identical `placed`
        // list — but only the holder's owner domain stores the copy.
        // Remote domains never scan static stores they don't own.
        if (ctx_.shard.owns(holder)) {
          ctx_.peers[holder].cache.put_static(entry);
        }
        placed.push_back(holder);
      }
    }
  }
}

std::size_t CustodyManager::region_population(geo::RegionId region) const {
  // Column sweep over the SoA alive/region arrays: two contiguous reads
  // per node instead of a PeerState stride plus a bounds-checked
  // liveness call.
  const auto& ns = ctx_.net.node_state();
  const std::uint8_t* alive = ns.alive_data();
  const geo::RegionId* reg = ns.region_data();
  const std::size_t n = ctx_.net.node_count();
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    count += static_cast<std::size_t>(alive[i] != 0 && reg[i] == region);
  }
  return count;
}

std::size_t CustodyManager::custody_count(geo::Key key) const {
  std::size_t count = 0;
  for (net::NodeId i = 0; i < ctx_.net.node_count(); ++i) {
    if (ctx_.net.is_alive(i) &&
        ctx_.peers[i].cache.find_static(key) != nullptr) {
      ++count;
    }
  }
  return count;
}

std::optional<geo::RegionId> CustodyManager::merge_regions(
    geo::RegionId a, geo::RegionId b, net::NodeId initiator) {
  const auto merged = ctx_.regions.merge(a, b);
  if (!merged.has_value()) return std::nullopt;
  commit_region_change(initiator);
  return merged;
}

std::optional<std::pair<geo::RegionId, geo::RegionId>>
CustodyManager::separate_region(geo::RegionId id, net::NodeId initiator) {
  const auto halves = ctx_.regions.separate(id);
  if (!halves.has_value()) return std::nullopt;
  commit_region_change(initiator);
  return halves;
}

void CustodyManager::commit_region_change(net::NodeId initiator) {
  PRECINCT_TRACE(ctx_.tracer, ctx_.sim.now(), sim::TraceCategory::kRegion,
                 initiator,
                 "region table now v" + std::to_string(ctx_.regions.version()) +
                     " with " + std::to_string(ctx_.regions.size()) +
                     " regions; disseminating");
  // §2.1: "the peer needs to disseminate the update to all other peers in
  // the whole network."  One network-wide flood carrying the region table
  // (16 B of center+extent per region on the air).
  net::PacketRef packet = ctx_.net.make_ref(
      ctx_.make_packet(net::PacketKind::kRegionUpdate, initiator,
                       /*key=*/ctx_.regions.version()));
  packet->mode = net::RouteMode::kNetworkFlood;
  packet->ttl = ctx_.config.network_flood_ttl;
  packet->size_bytes = net::kHeaderBytes + 16 * ctx_.regions.size();
  ctx_.flood.mark_seen(initiator, packet->id);
  ctx_.net.broadcast(std::move(packet));

  // The simulation keeps one shared table, so adoption of the new table
  // is immediate; every peer re-derives its region from it.
  for (net::NodeId i = 0; i < ctx_.net.node_count(); ++i) {
    ctx_.set_region(i, ctx_.regions.containing(ctx_.net.position(i)));
  }
  // The region-diameter normalization tracks the (new) typical region.
  ctx_.refresh_region_diameter();
  relocate_displaced_custody();
}

void CustodyManager::relocate_displaced_custody() {
  // "each key in the network also needs to be relocated according to the
  // region table changes" (§2.1).  Every custodian checks its static keys
  // against the new table; keys whose region set no longer includes the
  // holder's region are transferred to their new home region (routed,
  // adopted by the first peer inside — at real message cost).
  for (net::NodeId holder = 0; holder < ctx_.net.node_count(); ++holder) {
    if (!ctx_.net.is_alive(holder)) continue;
    PeerState& p = ctx_.peers[holder];
    std::vector<geo::Key> displaced;
    std::vector<geo::Key> duplicated;
    // Collect first: transfers mutate the static store.
    for (const auto rank :
         std::views::iota(std::size_t{0}, ctx_.catalog.size())) {
      const geo::Key key = ctx_.catalog.key_of(rank);
      const cache::CacheEntry* custody = p.cache.find_static(key);
      if (custody == nullptr) continue;
      const auto regions = ctx_.hash.key_regions(key, ctx_.regions,
                                                 ctx_.config.replica_count);
      if (std::find(regions.begin(), regions.end(), p.region) ==
          regions.end()) {
        displaced.push_back(key);
      } else if (duplicate_custodian(holder, key) < holder) {
        // A merge can fold a key's home and replica custodians into one
        // region; both survive the displacement rule (the merged region
        // is in the key's region set), so the fork is resolved here: the
        // lowest-id custodian keeps the copy, the others release theirs.
        duplicated.push_back(key);
      }
    }
    for (const geo::Key key : duplicated) p.cache.erase_static(key);
    for (const geo::Key key : displaced) {
      const cache::CacheEntry entry = *p.cache.find_static(key);
      p.cache.erase_static(key);
      const geo::RegionId new_home = ctx_.hash.home_region(key, ctx_.regions);
      const geo::Region* region = ctx_.regions.find(new_home);
      if (region == nullptr) continue;
      if (ctx_.measuring) ++ctx_.metrics.custody_handoffs;
      net::Packet packet =
          ctx_.make_packet(net::PacketKind::kKeyTransfer, holder, key);
      packet.mode = net::RouteMode::kGeographic;
      packet.dest_region = new_home;
      packet.dest_location = region->center;
      packet.ttl = ctx_.config.max_route_hops;
      packet.version = entry.version;
      packet.size_bytes = net::kHeaderBytes + entry.size_bytes;
      if (ctx_.peers[holder].region == new_home) {
        // Holder is already inside the new home region: adopt locally.
        p.cache.put_static(entry);
      } else {
        ctx_.forward_geographic(holder, packet);
      }
    }
  }
}

void CustodyManager::schedule_rebalance() {
  ctx_.sim.schedule(ctx_.config.region_reconfig_interval_s,
                    [this] { maybe_rebalance_regions(); });
}

void CustodyManager::maybe_rebalance_regions() {
  // One operation per round keeps churn (and dissemination floods) low.
  const double neighbor_radius = 1.5 * ctx_.region_diameter;
  bool acted = false;
  for (const geo::Region& r : ctx_.regions.regions()) {
    const std::size_t population = region_population(r.id);
    if (population < ctx_.config.min_region_peers && ctx_.regions.size() > 1) {
      const auto neighbors = ctx_.regions.neighbors_of(r.id, neighbor_radius);
      if (!neighbors.empty()) {
        // Merge into the least-populated neighbor to even things out.
        geo::RegionId partner = neighbors.front();
        std::size_t partner_pop = region_population(partner);
        for (const geo::RegionId n : neighbors) {
          const std::size_t pop = region_population(n);
          if (pop < partner_pop) {
            partner = n;
            partner_pop = pop;
          }
        }
        const net::NodeId initiator = pick_custody_target(net::kNoNode, r.id);
        merge_regions(r.id, partner,
                      initiator == net::kNoNode ? 0 : initiator);
        acted = true;
        break;
      }
    }
    if (population > ctx_.config.max_region_peers) {
      const net::NodeId initiator = pick_custody_target(net::kNoNode, r.id);
      separate_region(r.id, initiator == net::kNoNode ? 0 : initiator);
      acted = true;
      break;
    }
  }
  (void)acted;
  schedule_rebalance();
}

net::NodeId CustodyManager::pick_custody_target(net::NodeId mover,
                                                geo::RegionId region) {
  // §2.3: prefer peers with low mobility, near the region center, with
  // cache space.  Static space is uncapped here, so the score weighs
  // proximity to the center — and heavily penalizes members with no
  // radio link *inside* the region, which region-scoped floods (and thus
  // future lookups and pushes) could not reach.
  const geo::Region* r = ctx_.regions.find(region);
  if (r == nullptr) return net::kNoNode;
  net::NodeId best = net::kNoNode;
  double best_score = std::numeric_limits<double>::infinity();
  const auto& ns = ctx_.net.node_state();
  const std::uint8_t* alive = ns.alive_data();
  const geo::RegionId* reg = ns.region_data();
  for (net::NodeId i = 0; i < ctx_.net.node_count(); ++i) {
    if (i == mover || !alive[i] || reg[i] != region) continue;
    const double dist = geo::distance(ctx_.net.position(i), r->center);
    bool flood_reachable = false;
    for (const net::NodeId nb : ctx_.net.neighbors(i)) {
      if (nb != mover && ctx_.peers[nb].region == region) {
        flood_reachable = true;
        break;
      }
    }
    const double score = dist + (flood_reachable ? 0.0 : 1e6);
    if (score < best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

void CustodyManager::handoff_custody(net::NodeId peer,
                                     geo::RegionId old_region) {
  PeerState& p = ctx_.peers[peer];
  if (p.cache.static_count() == 0) return;
  const net::NodeId target = pick_custody_target(peer, old_region);
  const geo::Region* region = ctx_.regions.find(old_region);
  auto entries = p.cache.take_all_static();
  PRECINCT_TRACE(ctx_.tracer, ctx_.sim.now(), sim::TraceCategory::kCustody,
                 peer,
                 "handing off " + std::to_string(entries.size()) +
                     " keys of region " + std::to_string(old_region) +
                     (target == net::kNoNode ? " (adoption routing)"
                                             : " to node " +
                                                   std::to_string(target)));
  if (ctx_.measuring) ctx_.metrics.custody_handoffs += entries.size();
  for (const auto& entry : entries) {
    net::Packet packet =
        ctx_.make_packet(net::PacketKind::kKeyTransfer, peer, entry.key);
    packet.mode = net::RouteMode::kGeographic;
    packet.dest_region = old_region;
    packet.ttl = ctx_.config.max_route_hops;
    packet.version = entry.version;
    packet.size_bytes = net::kHeaderBytes + entry.size_bytes;
    if (target != net::kNoNode) {
      packet.dest_node = target;
      packet.dest_location = ctx_.net.position(target);
    } else if (region != nullptr) {
      // No suitable target is known: route the key back toward the old
      // region's center and let the first peer inside adopt custody.
      packet.dest_location = region->center;
    } else {
      continue;  // region vanished (table change); replica covers (§2.4)
    }
    ctx_.forward_geographic(peer, packet);
  }
}

void CustodyManager::handle_key_transfer(net::NodeId self,
                                         const net::Packet& packet) {
  const bool addressed_to_me = self == packet.dest_node;
  const bool adoptable = packet.dest_node == net::kNoNode &&
                         ctx_.peers[self].region == packet.dest_region;
  if (!addressed_to_me && !adoptable) {
    ctx_.forward_geographic(self, packet);
    return;
  }
  // Custody-uniqueness guard: a void-recovery broadcast can fan the same
  // transfer frame out to several adopters, and an addressed target may
  // share a region with an existing custodian.  Adopting anyway would
  // fork the key's home copy, so a transfer whose key already has a live
  // custodian in this peer's region is dropped instead (the resident
  // copy stays authoritative for the region).
  if (duplicate_custodian(self, packet.key) != net::kNoNode) return;
  cache::CacheEntry entry;
  entry.key = packet.key;
  entry.size_bytes = packet.size_bytes - net::kHeaderBytes;
  entry.version = packet.version;
  ctx_.peers[self].cache.put_static(entry);
}

net::NodeId CustodyManager::duplicate_custodian(net::NodeId holder,
                                                geo::Key key) const {
  const geo::RegionId region = ctx_.peers[holder].region;
  const auto& ns = ctx_.net.node_state();
  const std::uint8_t* alive = ns.alive_data();
  const geo::RegionId* reg = ns.region_data();
  for (net::NodeId i = 0; i < ctx_.net.node_count(); ++i) {
    if (i == holder || !alive[i] || reg[i] != region) continue;
    if (ctx_.peers[i].cache.find_static(key) != nullptr) return i;
  }
  return net::kNoNode;
}

void CustodyManager::check_region(net::NodeId peer) {
  if (!ctx_.net.is_alive(peer)) return;
  const geo::RegionId now_in =
      ctx_.regions.containing(ctx_.net.position(peer));
  if (now_in != ctx_.peers[peer].region) {
    const geo::RegionId old_region = ctx_.peers[peer].region;
    ctx_.set_region(peer, now_in);
    handoff_custody(peer, old_region);  // inter-region mobility (§2.3)
  }
  const std::uint32_t generation = ctx_.peers[peer].generation;
  ctx_.sim.schedule(ctx_.config.region_check_interval_s,
                    [this, peer, generation] {
                      if (ctx_.peers[peer].generation == generation) {
                        check_region(peer);
                      }
                    });
}

void CustodyManager::fail_peer(net::NodeId peer, bool graceful) {
  if (!ctx_.net.is_alive(peer)) return;
  if (graceful) {
    // A graceful departure transfers custody first (§2.4 assumption ii)
    // and lingers long enough for the queued transfer frames to flush.
    handoff_custody(peer, ctx_.peers[peer].region);
    ctx_.sim.schedule(0.5, [this, peer] { ctx_.net.kill(peer); });
  } else {
    ctx_.net.kill(peer);
  }
}

void CustodyManager::revive_peer(net::NodeId peer) {
  if (ctx_.net.is_alive(peer)) return;
  ctx_.net.revive(peer);
  ++ctx_.peers[peer].generation;  // kill any still-scheduled old loops
  // A rejoining device starts cold: no cached data, no custody, no
  // neighbor knowledge, and a fresh region fix.
  PeerState& p = ctx_.peers[peer];
  for (const geo::Key key : p.cache.keys()) p.cache.erase(key);
  (void)p.cache.take_all_static();
  if (ctx_.beacons != nullptr) ctx_.beacons->clear_node(peer);
  ctx_.set_region(peer, ctx_.regions.containing(ctx_.net.position(peer)));
  ctx_.workload->schedule_next_request(peer);
  if (ctx_.config.updates_enabled && ctx_.consistency->generates_updates()) {
    ctx_.workload->schedule_next_update(peer);
  }
  if (ctx_.config.mobile) {
    ctx_.sim.schedule(ctx_.config.region_check_interval_s,
                      [this, peer] { check_region(peer); });
  }
  if (ctx_.config.use_beacons) ctx_.workload->schedule_beacon(peer);
  PRECINCT_TRACE(ctx_.tracer, ctx_.sim.now(), sim::TraceCategory::kProtocol,
                 peer, "rejoined the network");
}

}  // namespace precinct::core
