#include "mobility/random_direction.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

namespace precinct::mobility {

RandomDirection::RandomDirection(std::size_t n_nodes,
                                 const RandomDirectionConfig& config,
                                 std::uint64_t seed)
    : LegMobility(n_nodes, seed), config_(config) {
  require_speed_range("RandomDirection", config.v_min, config.v_max);
  if (config.pause_s < 0.0) {
    throw std::invalid_argument("RandomDirection: pause must be >= 0");
  }
  for (Leg& leg : legs_) {
    leg.to = {leg.rng.uniform(config_.area.min.x, config_.area.max.x),
              leg.rng.uniform(config_.area.min.y, config_.area.max.y)};
    leg.from = leg.to;
    leg.next_depart = config_.pause_s;
  }
}

geo::Point RandomDirection::boundary_hit(geo::Point p, double angle) const {
  const double dx = std::cos(angle);
  const double dy = std::sin(angle);
  double t_exit = std::numeric_limits<double>::infinity();
  if (dx > 1e-12) t_exit = std::min(t_exit, (config_.area.max.x - p.x) / dx);
  if (dx < -1e-12) t_exit = std::min(t_exit, (config_.area.min.x - p.x) / dx);
  if (dy > 1e-12) t_exit = std::min(t_exit, (config_.area.max.y - p.y) / dy);
  if (dy < -1e-12) t_exit = std::min(t_exit, (config_.area.min.y - p.y) / dy);
  if (!std::isfinite(t_exit)) return p;  // degenerate heading
  t_exit = std::max(0.0, t_exit);
  return config_.area.clamp({p.x + dx * t_exit, p.y + dy * t_exit});
}

void RandomDirection::next_leg(std::size_t /*node*/, Leg& leg) {
  const double angle = leg.rng.uniform(0.0, 2.0 * std::numbers::pi);
  leg.to = boundary_hit(leg.from, angle);
  leg.speed = leg.rng.uniform(config_.v_min, config_.v_max);
  const double dist = geo::distance(leg.from, leg.to);
  // A zero-length leg (corner hit) still consumes the pause so the loop
  // always makes progress.
  leg.arrive = leg.depart + (dist > 1e-9 ? dist / leg.speed : 1e-3);
  leg.next_depart = leg.arrive + config_.pause_s;
}

}  // namespace precinct::mobility
