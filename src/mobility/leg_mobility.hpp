// The leg engine behind the waypoint-style models (RandomWaypoint,
// RandomDirection, ManhattanGrid, CommuterFlow).  Each node moves in
// legs: a straight run from `from` to `to` at constant `speed` over
// [depart, arrive], then a rest until the next leg departs.  Legs roll
// forward lazily as a node's queries advance its clock, so a query costs
// O(1) amortized.  A model only says how its first leg starts (in its
// constructor) and how to draw the next one (next_leg).
#pragma once

#include <cstdint>
#include <vector>

#include "geo/geometry.hpp"
#include "mobility/mobility_model.hpp"
#include "support/rng.hpp"

namespace precinct::mobility {

class LegMobility : public MobilityModel {
 public:
  /// One node's current leg, and the RNG stream its legs are drawn from.
  struct Leg {
    support::Rng rng;
    geo::Point from;
    geo::Point to;
    double depart = 0.0;       ///< motion starts
    double arrive = 0.0;       ///< `to` reached; the node rests after it
    double next_depart = 0.0;  ///< the next leg departs here
    double speed = 0.0;
  };

  [[nodiscard]] geo::Point position_at(std::size_t node, double t) final;
  [[nodiscard]] double speed_at(std::size_t node, double t) final;
  [[nodiscard]] std::size_t node_count() const noexcept final {
    return legs_.size();
  }

 protected:
  /// One leg per node, at rest at the origin at t = 0, each drawing from
  /// its own stream `Rng(seed).split(node)`, so a node's path does not
  /// depend on how often other nodes are queried.  The derived
  /// constructor draws where each node starts and when its first leg
  /// departs.
  LegMobility(std::size_t n_nodes, std::uint64_t seed);

  /// Throws std::invalid_argument naming `model` unless
  /// 0 < v_min <= v_max.
  static void require_speed_range(const char* model, double v_min,
                                  double v_max);

  /// Draw `node`'s next leg; runs only when the current one has ended.
  /// On entry `leg.from` is the old `to` and `leg.depart` the old
  /// `next_depart`.  Sets `to`, `speed`, `arrive` and `next_depart`.
  virtual void next_leg(std::size_t node, Leg& leg) = 0;

  std::vector<Leg> legs_;

 private:
  /// `node`'s leg rolled forward until `t` falls inside it or its rest.
  Leg& advance(std::size_t node, double t);
};

}  // namespace precinct::mobility
