#include "mobility/random_waypoint.hpp"

#include <stdexcept>

namespace precinct::mobility {

RandomWaypoint::RandomWaypoint(std::size_t n_nodes,
                               const RandomWaypointConfig& config,
                               std::uint64_t seed)
    : LegMobility(n_nodes, seed), config_(config) {
  require_speed_range("RandomWaypoint", config.v_min, config.v_max);
  if (config.pause_s < 0.0) {
    throw std::invalid_argument("RandomWaypoint: pause must be >= 0");
  }
  for (Leg& leg : legs_) {
    // Start paused at the initial position; the first leg departs after
    // the configured pause so the initial topology matches the random
    // initial placement (matching ns-2 scenario generation).
    leg.to = {leg.rng.uniform(config_.area.min.x, config_.area.max.x),
              leg.rng.uniform(config_.area.min.y, config_.area.max.y)};
    leg.from = leg.to;
    leg.next_depart = config_.pause_s;
  }
}

void RandomWaypoint::next_leg(std::size_t /*node*/, Leg& leg) {
  leg.to = {leg.rng.uniform(config_.area.min.x, config_.area.max.x),
            leg.rng.uniform(config_.area.min.y, config_.area.max.y)};
  leg.speed = leg.rng.uniform(config_.v_min, config_.v_max);
  leg.arrive = leg.depart + geo::distance(leg.from, leg.to) / leg.speed;
  leg.next_depart = leg.arrive + config_.pause_s;
}

}  // namespace precinct::mobility
