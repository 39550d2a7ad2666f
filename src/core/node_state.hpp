// Structure-of-arrays node state: the simulator's hot-path view of every
// node, one contiguous column per field (DESIGN.md §12).
//
// The dominant loops — neighbor discovery, GPSR next-hop/planarization,
// spatial-grid rebuilds, custody membership sweeps — each touch one or
// two fields of *every* node.  Scattered per-node structs (PeerState is
// hundreds of bytes around its CacheStore) turn those sweeps into
// strided cache misses; parallel arrays make them linear scans the
// compiler can vectorize.
//
// Ownership and coherence: the radio substrate (net::WirelessNet) owns
// the instance and keeps the position/alive columns current; the engine
// writes the region column through EngineContext::set_region so
// PeerState::region and the column never diverge.  Protocol modules do
// not see these arrays — they keep going through the existing seams
// (WirelessNet::position/neighbors, routing::Gpsr, CacheStore); only
// substrate internals and engine-level full-population sweeps read the
// columns directly.
//
// Positions are a lazy per-node cache over the mobility trajectory
// oracle, keyed on the exact sim-time stamp of the last refresh: the
// first query for a node at time t pays the virtual position_at call,
// every repeat at the same t is two array reads.  Mobility models derive
// each node's trajectory from its own RNG stream, so refresh order and
// frequency cannot change where anyone is.
//
// Header-only: net/ and routing/ sit below core/ in the library graph
// and link no core:: symbols.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "geo/geometry.hpp"
#include "geo/region_table.hpp"
#include "mobility/mobility_model.hpp"

namespace precinct::core {

class NodeStateSoA {
 public:
  /// Stamp value no sim time ever takes (the clock is >= 0).
  static constexpr double kNever = -1.0;

  explicit NodeStateSoA(std::size_t n)
      : x_(n, 0.0),
        y_(n, 0.0),
        pos_stamp_(n, kNever),
        alive_(n, 1),
        fixed_(n, 0),
        region_(n, geo::kInvalidRegion) {}

  [[nodiscard]] std::size_t size() const noexcept { return x_.size(); }

  // -- positions (lazy cache over the mobility oracle) ----------------------

  /// Node `i`'s position at time `now`, consulting `mobility` only when
  /// the cached stamp is stale.  `now` must be non-decreasing per node
  /// (the mobility contract), which the monotone sim clock guarantees.
  [[nodiscard]] geo::Point position_cached(std::size_t i, double now,
                                           mobility::MobilityModel& mobility) {
    assert(i < x_.size());
    if (pos_stamp_[i] != now) {
      const geo::Point p = mobility.position_at(i, now);
      x_[i] = p.x;
      y_[i] = p.y;
      pos_stamp_[i] = now;
    }
    return {x_[i], y_[i]};
  }

  /// Refresh every node's position column to time `now` (mobility
  /// advancement).  After this, x()/y() are a coherent snapshot and
  /// position_cached is pure array reads until the clock moves.
  void sync_positions(double now, mobility::MobilityModel& mobility) {
    const std::size_t n = x_.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (pos_stamp_[i] == now) continue;
      const geo::Point p = mobility.position_at(i, now);
      x_[i] = p.x;
      y_[i] = p.y;
      pos_stamp_[i] = now;
    }
  }

  /// Node `i`'s position straight from the columns, with no freshness
  /// check.  Only valid when the caller knows the columns are current at
  /// the query time — e.g. a time-invariant mobility model whose
  /// trajectories were synced once (WirelessNet's static-world path).
  [[nodiscard]] geo::Point position(std::size_t i) const {
    assert(i < x_.size());
    return {x_[i], y_[i]};
  }

  [[nodiscard]] const double* x() const noexcept { return x_.data(); }
  [[nodiscard]] const double* y() const noexcept { return y_.data(); }

  // -- liveness -------------------------------------------------------------

  [[nodiscard]] bool alive(std::size_t i) const {
    assert(i < alive_.size());
    return alive_[i] != 0;
  }
  void set_alive(std::size_t i, bool a) {
    assert(i < alive_.size());
    alive_[i] = a ? 1 : 0;
  }
  [[nodiscard]] const std::uint8_t* alive_data() const noexcept {
    return alive_.data();
  }

  // -- fixed infrastructure ---------------------------------------------------
  // Heterogeneous fleets (config node classes) mark roadside units here;
  // they never move, so region checks skip them and custody placement
  // prefers them as stable anchors.  All-zero for homogeneous fleets.

  [[nodiscard]] bool fixed(std::size_t i) const {
    assert(i < fixed_.size());
    return fixed_[i] != 0;
  }
  void set_fixed(std::size_t i, bool f) {
    assert(i < fixed_.size());
    fixed_[i] = f ? 1 : 0;
  }

  // -- region membership ----------------------------------------------------

  [[nodiscard]] geo::RegionId region(std::size_t i) const {
    assert(i < region_.size());
    return region_[i];
  }
  void set_region(std::size_t i, geo::RegionId r) {
    assert(i < region_.size());
    region_[i] = r;
  }
  [[nodiscard]] const geo::RegionId* region_data() const noexcept {
    return region_.data();
  }

 private:
  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<double> pos_stamp_;
  std::vector<std::uint8_t> alive_;
  std::vector<std::uint8_t> fixed_;
  std::vector<geo::RegionId> region_;
};

}  // namespace precinct::core
