// Beacon-fed neighbor knowledge for geographic forwarding.
//
// GPSR decides next hops from what a node *believes* about its
// neighborhood.  By default that is the radio substrate's ground truth
// (perfect, instantaneous knowledge — what most simulators use; Gpsr
// reads net::WirelessNet directly).  This table implements Karp & Kung's
// actual mechanism instead: periodic position beacons feed per-node
// tables whose entries go stale and expire, so forwarding can aim at a
// neighbor that has already moved away.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geo/geometry.hpp"
#include "net/packet.hpp"
#include "net/wireless_net.hpp"

namespace precinct::routing {

/// Beacon-fed neighbor tables (GPSR §3 of Karp & Kung).  The owner is
/// responsible for delivering received beacons via on_beacon(); entries
/// not refreshed within `lifetime_s` expire lazily.
class BeaconNeighborProvider {
 public:
  BeaconNeighborProvider(net::WirelessNet& network, std::size_t n_nodes,
                         double lifetime_s);

  /// Record that `receiver` heard a beacon from `source` at `pos`.
  void on_beacon(net::NodeId receiver, net::NodeId source, geo::Point pos,
                 double now_s);

  /// Forget everything a node has learned (e.g. on revival after crash).
  void clear_node(net::NodeId node);

  /// Replace `out`'s contents with the node ids `self` currently believes
  /// are its neighbors, sorted (reusing `out`'s capacity).  Expired
  /// entries are dropped on the way.
  void neighbors_into(net::NodeId self, std::vector<net::NodeId>& out);

  /// Where `self` believes `node` is.  Only meaningful for ids returned
  /// by neighbors_into(self) (and for self itself: its own GPS fix).
  [[nodiscard]] geo::Point position_of(net::NodeId self, net::NodeId node);

  /// Monotone version of `self`'s table, bumped on every beacon receipt
  /// and table clear: at a fixed sim time, `self`'s neighbor list cannot
  /// change while it is stable, so GPSR keys its planarization on it.
  [[nodiscard]] std::uint64_t knowledge_version(net::NodeId self) const {
    return versions_.at(self);
  }

  [[nodiscard]] double lifetime_s() const noexcept { return lifetime_s_; }
  /// Live (unexpired) entry count for a node's table.
  [[nodiscard]] std::size_t table_size(net::NodeId node) const;

 private:
  struct Entry {
    geo::Point pos;
    double heard_at = -1.0;
  };

  net::WirelessNet& net_;
  double lifetime_s_;
  std::vector<std::unordered_map<net::NodeId, Entry>> tables_;
  std::vector<std::uint64_t> versions_;
};

}  // namespace precinct::routing
