// Random direction mobility: each node picks a uniform heading and speed,
// travels until it hits the area boundary, pauses, then picks a new
// heading.  Unlike random waypoint it keeps the spatial distribution
// near-uniform (no center bias), which the paper's future work asks to
// evaluate against.
#pragma once

#include <cstdint>

#include "geo/geometry.hpp"
#include "mobility/leg_mobility.hpp"

namespace precinct::mobility {

struct RandomDirectionConfig {
  geo::Rect area{{0.0, 0.0}, {1200.0, 1200.0}};
  double v_min = 0.5;
  double v_max = 6.0;
  double pause_s = 5.0;
};

class RandomDirection final : public LegMobility {
 public:
  RandomDirection(std::size_t n_nodes, const RandomDirectionConfig& config,
                  std::uint64_t seed);

 private:
  /// Where a ray from `p` along `angle` exits the area.
  [[nodiscard]] geo::Point boundary_hit(geo::Point p, double angle) const;
  void next_leg(std::size_t node, Leg& leg) override;

  RandomDirectionConfig config_;
};

}  // namespace precinct::mobility
