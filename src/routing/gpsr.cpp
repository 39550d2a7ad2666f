#include "routing/gpsr.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

namespace precinct::routing {

namespace {

/// Counter-clockwise angular distance from angle `a` to angle `b`.
double ccw_delta(double a, double b) noexcept {
  double d = b - a;
  while (d <= 0.0) d += 2.0 * std::numbers::pi;
  while (d > 2.0 * std::numbers::pi) d -= 2.0 * std::numbers::pi;
  return d;
}

}  // namespace

std::optional<net::NodeId> Gpsr::greedy_next_hop(net::NodeId self,
                                                 geo::Point dest) {
  const geo::Point here = net_.position(self);
  // Squared distances: sqrt is monotone, so the argmin (and the "closer
  // than self" admission test) are unchanged, and the k+1 sqrts per
  // decision disappear.
  const double my_dist = geo::distance_sq(here, dest);
  net::NodeId best = net::kNoNode;
  double best_dist = my_dist;
  for (const net::NodeId n : neighbor_list(self)) {
    const double d = geo::distance_sq(pos_of(self, n), dest);
    if (d < best_dist || (d == best_dist && best != net::kNoNode && n < best)) {
      best_dist = d;
      best = n;
    }
  }
  if (best == net::kNoNode) return std::nullopt;
  return best;
}

void Gpsr::compute_planar(net::NodeId self, std::vector<net::NodeId>& out) {
  const geo::Point here = net_.position(self);
  const auto& all = neighbor_list(self);
  // Materialize believed positions once: the Gabriel test below is
  // O(k^2) position reads, and position_of is stable within this call.
  scratch_points_.clear();
  scratch_points_.reserve(all.size());
  for (const net::NodeId v : all) scratch_points_.push_back(pos_of(self, v));
  const std::size_t k = all.size();
  out.clear();
  out.reserve(k);
  for (std::size_t vi = 0; vi < k; ++vi) {
    const geo::Point pv = scratch_points_[vi];
    const geo::Point mid{(here.x + pv.x) * 0.5, (here.y + pv.y) * 0.5};
    const double radius_sq = geo::distance_sq(here, pv) * 0.25;
    bool witnessed = false;
    for (std::size_t wi = 0; wi < k; ++wi) {
      if (wi != vi &&
          geo::distance_sq(scratch_points_[wi], mid) < radius_sq) {
        witnessed = true;
        break;
      }
    }
    if (!witnessed) out.push_back(all[vi]);
  }
}

const std::vector<net::NodeId>& Gpsr::planar_neighbors(net::NodeId self) {
  if (planar_cache_.size() < net_.node_count()) {
    planar_cache_.resize(net_.node_count());
  }
  PlanarCache& c = planar_cache_[self];
  const double now = net_.simulator().now();
  if (!net_.config().neighbor_cache || c.at != now ||
      c.version != knowledge_version(self)) {
    compute_planar(self, c.ids);
    // Bearings are stable under the same stamp, so the right-hand-rule
    // scans over this planarization never touch atan2 again.
    const geo::Point here = net_.position(self);
    c.bearings.resize(c.ids.size());
    for (std::size_t i = 0; i < c.ids.size(); ++i) {
      c.bearings[i] = geo::bearing(here, pos_of(self, c.ids[i]));
    }
    // Stamp after computing: the neighbor query may rebuild the spatial
    // grid and advance the topology epoch.
    c.version = knowledge_version(self);
    c.at = now;
  }
  return c.ids;
}

std::optional<net::NodeId> Gpsr::perimeter_next_hop(net::NodeId self,
                                                    net::Packet& packet) {
  const auto& planar = planar_neighbors(self);
  if (planar.empty()) return std::nullopt;
  const auto& bearings = planar_cache_[self].bearings;
  const geo::Point here = net_.position(self);

  // Right-hand rule: take the first edge counterclockwise from the
  // reference direction (the edge the packet arrived on, or the direction
  // toward the destination when entering perimeter mode).  Per-edge
  // bearings come from the planar cache; only the reference direction is
  // packet-dependent.
  const geo::Point ref_point = packet.src != net::kNoNode && packet.perimeter
                                   ? pos_of(self, packet.src)
                                   : packet.dest_location;
  const double ref_angle = geo::bearing(here, ref_point);

  net::NodeId best = net::kNoNode;
  double best_delta = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < planar.size(); ++i) {
    const net::NodeId v = planar[i];
    if (v == packet.src && planar.size() > 1) continue;  // don't bounce back
    const double delta = ccw_delta(ref_angle, bearings[i]);
    if (delta < best_delta) {
      best_delta = delta;
      best = v;
    }
  }
  if (best == net::kNoNode) best = planar.front();

  // Loop detection (GPSR's e0 test): if the walk is about to retraverse
  // the first perimeter edge — same tail node, same head node — the
  // destination is unreachable from this face.
  if (packet.perimeter && self == packet.perimeter_entry_node &&
      best == packet.perimeter_first_hop && packet.hops > 1) {
    return std::nullopt;
  }
  if (!packet.perimeter) {
    packet.perimeter = true;
    packet.perimeter_entry = here;
    packet.perimeter_entry_node = self;
    packet.perimeter_first_hop = best;
  }
  return best;
}

std::optional<net::NodeId> Gpsr::next_hop(net::NodeId self,
                                          net::Packet& packet) {
  const geo::Point here = net_.position(self);
  if (packet.perimeter) {
    // Exit perimeter mode as soon as we are closer to the destination
    // than the point where greedy forwarding failed.
    if (geo::distance(here, packet.dest_location) <
        geo::distance(packet.perimeter_entry, packet.dest_location)) {
      packet.perimeter = false;
      packet.perimeter_entry_node = net::kNoNode;
      packet.perimeter_first_hop = net::kNoNode;
    } else {
      return perimeter_next_hop(self, packet);
    }
  }
  if (auto hop = greedy_next_hop(self, packet.dest_location)) return hop;
  return perimeter_next_hop(self, packet);
}

}  // namespace precinct::routing
