// Manhattan-grid vehicular mobility (structured mobility, ROADMAP item 3):
// nodes are vehicles constrained to a lattice of axis-aligned streets
// spaced `street_spacing_m` apart.  Each leg runs intersection to
// intersection at a per-leg uniform speed; at every intersection the
// vehicle turns onto a perpendicular street with probability
// `turn_probability` (uniform over the legal perpendicular directions),
// otherwise continues straight, reversing only at dead ends.  Waypoints
// are lane-snapped by construction: a position is always on a street
// line, never mid-block.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/geometry.hpp"
#include "mobility/leg_mobility.hpp"

namespace precinct::mobility {

struct ManhattanGridConfig {
  geo::Rect area{{0.0, 0.0}, {1200.0, 1200.0}};
  double street_spacing_m = 100.0;  ///< distance between parallel streets
  double turn_probability = 0.25;   ///< P(turn) at each intersection
  double v_min = 2.0;               ///< m/s
  double v_max = 14.0;              ///< m/s
  double pause_s = 2.0;             ///< stop time at each intersection
};

class ManhattanGrid final : public LegMobility {
 public:
  /// Vehicles start at uniform random intersections with a uniform legal
  /// heading; trajectories derive from per-node RNG streams split from
  /// `seed`, so each node's path is independent of query interleaving.
  ManhattanGrid(std::size_t n_nodes, const ManhattanGridConfig& config,
                std::uint64_t seed);

  /// Intersections per row (test introspection).
  [[nodiscard]] std::size_t columns() const noexcept { return nx_; }
  [[nodiscard]] std::size_t rows() const noexcept { return ny_; }

 private:
  /// Where a vehicle is on the lattice and which way it drives.
  struct Heading {
    std::int32_t ix = 0;  // intersection the current leg ends at
    std::int32_t iy = 0;
    std::int32_t dx = 0;  // axis-aligned: exactly one of dx/dy != 0
    std::int32_t dy = 0;
  };

  [[nodiscard]] geo::Point intersection(std::int32_t ix,
                                        std::int32_t iy) const noexcept;
  void next_leg(std::size_t node, Leg& leg) override;

  ManhattanGridConfig config_;
  std::size_t nx_ = 0;  ///< intersections along x (>= 2)
  std::size_t ny_ = 0;  ///< intersections along y (>= 2)
  std::vector<Heading> headings_;  ///< per node
};

}  // namespace precinct::mobility
