// Random waypoint mobility (Broch et al., the model the paper's ns-2
// experiments use): each node repeatedly picks a uniform destination in
// the area and a uniform speed in [vmin, vmax], travels there in a
// straight line, pauses, and repeats.
#pragma once

#include <cstdint>

#include "geo/geometry.hpp"
#include "mobility/leg_mobility.hpp"

namespace precinct::mobility {

struct RandomWaypointConfig {
  geo::Rect area{{0.0, 0.0}, {1200.0, 1200.0}};
  double v_min = 0.5;    ///< m/s; > 0 avoids the well-known RWP speed decay
  double v_max = 6.0;    ///< m/s (paper sweeps 2..20)
  double pause_s = 5.0;  ///< pause between legs (paper: 5 s)
};

class RandomWaypoint final : public LegMobility {
 public:
  /// Nodes start at uniform positions; trajectories derive from
  /// per-node RNG streams split from `seed` so each node's path is
  /// independent of how often other nodes are queried.
  RandomWaypoint(std::size_t n_nodes, const RandomWaypointConfig& config,
                 std::uint64_t seed);

 private:
  void next_leg(std::size_t node, Leg& leg) override;

  RandomWaypointConfig config_;
};

}  // namespace precinct::mobility
