// GPSR — Greedy Perimeter Stateless Routing (Karp & Kung, MobiCom 2000),
// the geographic routing protocol the paper runs under PReCinCt, extended
// per the paper to route to *regions*: packets are forwarded toward the
// destination region's center, and the first node inside that region
// becomes the broadcast point for the localized flood (§2.2, §6).
//
// Greedy mode forwards to the neighbor geographically closest to the
// destination when that neighbor is closer than the current node.  At a
// local minimum (a "void"), the packet switches to perimeter mode and
// follows the right-hand rule on the Gabriel-graph planarization of the
// connectivity graph until it reaches a node closer to the destination
// than where greedy failed.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "geo/geometry.hpp"
#include "net/packet.hpp"
#include "net/wireless_net.hpp"
#include "routing/neighbor_provider.hpp"

namespace precinct::routing {

class Gpsr {
 public:
  /// Neighbors and their positions come from the radio's ground truth,
  /// or, given `beacons`, from those beacon-fed tables; the node's own
  /// position is always its real GPS fix.  `beacons` must outlive this.
  explicit Gpsr(net::WirelessNet& network,
                BeaconNeighborProvider* beacons = nullptr)
      : net_(network), beacons_(beacons) {}

  /// Decide the next hop for `packet` held by `self`, toward
  /// packet.dest_location.  Mutates the packet's perimeter-mode state.
  /// Returns nullopt when the packet cannot progress (isolated node or
  /// perimeter loop) and should be dropped or rerouted by the caller.
  [[nodiscard]] std::optional<net::NodeId> next_hop(net::NodeId self,
                                                    net::Packet& packet);

  /// Greedy rule only: the neighbor strictly closer to `dest` than `self`
  /// that minimizes remaining distance; nullopt at a local minimum.
  [[nodiscard]] std::optional<net::NodeId> greedy_next_hop(net::NodeId self,
                                                           geo::Point dest);

  /// Neighbors of `self` that survive Gabriel-graph planarization: edge
  /// (self, v) is kept iff no common neighbor lies strictly inside the
  /// circle whose diameter is the segment self–v.  Cached per node and
  /// recomputed only when the knowledge version (the radio's topology
  /// epoch, or `self`'s beacon-table version) or the sim time changes, so
  /// forwarding many packets through a node at one instant planarizes
  /// once.  The reference stays valid until `self`'s entry is next
  /// recomputed.
  [[nodiscard]] const std::vector<net::NodeId>& planar_neighbors(
      net::NodeId self);

 private:
  [[nodiscard]] std::optional<net::NodeId> perimeter_next_hop(
      net::NodeId self, net::Packet& packet);

  void compute_planar(net::NodeId self, std::vector<net::NodeId>& out);

  /// Borrow `self`'s neighbor list for one forwarding decision: the
  /// radio's cached list by reference, or the beacon table's answer in a
  /// scratch vector.  The reference is invalidated by the next
  /// neighbor_list call.
  [[nodiscard]] const std::vector<net::NodeId>& neighbor_list(
      net::NodeId self) {
    if (beacons_ == nullptr) return net_.neighbors(self);
    beacons_->neighbors_into(self, scratch_neighbors_);
    return scratch_neighbors_;
  }

  /// Where `self` believes `node` is.
  [[nodiscard]] geo::Point pos_of(net::NodeId self, net::NodeId node) {
    return beacons_ == nullptr ? net_.position(node)
                               : beacons_->position_of(self, node);
  }

  /// Version of `self`'s neighbor knowledge (see planar_neighbors).
  [[nodiscard]] std::uint64_t knowledge_version(net::NodeId self) const {
    return beacons_ == nullptr ? net_.topology_epoch()
                               : beacons_->knowledge_version(self);
  }

  struct PlanarCache {
    std::uint64_t version = 0;  // 0 never matches a live version
    double at = -1.0;
    std::vector<net::NodeId> ids;
    /// bearing(self, ids[i]) under the same (at, version) stamp: the
    /// right-hand-rule scan is angle comparisons only, so the atan2s are
    /// paid once per planarization instead of once per packet.
    std::vector<double> bearings;
  };

  net::WirelessNet& net_;
  BeaconNeighborProvider* beacons_;
  std::vector<PlanarCache> planar_cache_;
  std::vector<net::NodeId> scratch_neighbors_;
  std::vector<geo::Point> scratch_points_;  // planarization position batch
};

}  // namespace precinct::routing
