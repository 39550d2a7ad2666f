#include "mobility/manhattan_grid.hpp"

#include <array>
#include <cmath>
#include <stdexcept>

namespace precinct::mobility {

namespace {

constexpr std::array<std::array<std::int32_t, 2>, 4> kHeadings = {
    {{1, 0}, {-1, 0}, {0, 1}, {0, -1}}};

bool on_grid(std::int32_t ix, std::int32_t iy, std::size_t nx,
             std::size_t ny) noexcept {
  return ix >= 0 && iy >= 0 && ix < static_cast<std::int32_t>(nx) &&
         iy < static_cast<std::int32_t>(ny);
}

}  // namespace

ManhattanGrid::ManhattanGrid(std::size_t n_nodes,
                             const ManhattanGridConfig& config,
                             std::uint64_t seed)
    : LegMobility(n_nodes, seed), config_(config) {
  require_speed_range("ManhattanGrid", config.v_min, config.v_max);
  if (config.pause_s < 0.0) {
    throw std::invalid_argument("ManhattanGrid: pause must be >= 0");
  }
  if (config.street_spacing_m <= 0.0) {
    throw std::invalid_argument("ManhattanGrid: street spacing must be > 0");
  }
  if (config.turn_probability < 0.0 || config.turn_probability > 1.0) {
    throw std::invalid_argument(
        "ManhattanGrid: turn probability must be in [0, 1]");
  }
  // Streets sit at min + k * spacing.  The area rect is half-open, so a
  // street exactly on the max edge is dropped to keep every intersection
  // inside the region partition.
  auto street_count = [&](double extent) {
    auto n = static_cast<std::size_t>(std::floor(extent /
                                                 config_.street_spacing_m)) +
             1;
    while (n > 1 && static_cast<double>(n - 1) * config_.street_spacing_m >=
                        extent) {
      --n;
    }
    return n;
  };
  nx_ = street_count(config_.area.width());
  ny_ = street_count(config_.area.height());
  if (nx_ < 2 || ny_ < 2) {
    throw std::invalid_argument(
        "ManhattanGrid: area too small for street spacing (need a 2x2 "
        "intersection grid)");
  }

  headings_.reserve(n_nodes);
  for (Leg& leg : legs_) {
    Heading h;
    h.ix = static_cast<std::int32_t>(leg.rng.uniform_int(nx_));
    h.iy = static_cast<std::int32_t>(leg.rng.uniform_int(ny_));
    // Uniform legal initial heading (nx_, ny_ >= 2 guarantees a choice).
    std::array<std::array<std::int32_t, 2>, 4> legal{};
    std::size_t n_legal = 0;
    for (const auto& d : kHeadings) {
      if (on_grid(h.ix + d[0], h.iy + d[1], nx_, ny_)) legal[n_legal++] = d;
    }
    const auto& pick = legal[leg.rng.uniform_int(n_legal)];
    h.dx = pick[0];
    h.dy = pick[1];
    leg.to = intersection(h.ix, h.iy);
    leg.from = leg.to;
    // Start paused at the initial intersection, like RandomWaypoint: the
    // initial topology is the random placement itself.
    leg.next_depart = config_.pause_s;
    headings_.push_back(h);
  }
}

geo::Point ManhattanGrid::intersection(std::int32_t ix,
                                       std::int32_t iy) const noexcept {
  return {config_.area.min.x +
              static_cast<double>(ix) * config_.street_spacing_m,
          config_.area.min.y +
              static_cast<double>(iy) * config_.street_spacing_m};
}

void ManhattanGrid::next_leg(std::size_t node, Leg& leg) {
  Heading& h = headings_[node];
  // Perpendicular exits that stay on the grid.
  std::array<std::array<std::int32_t, 2>, 2> perp{};
  std::size_t n_perp = 0;
  for (const auto& d : kHeadings) {
    const bool perpendicular = (d[0] * h.dx + d[1] * h.dy) == 0;
    if (perpendicular && on_grid(h.ix + d[0], h.iy + d[1], nx_, ny_)) {
      perp[n_perp++] = d;
    }
  }
  const bool straight_ok = on_grid(h.ix + h.dx, h.iy + h.dy, nx_, ny_);
  const bool turn = leg.rng.uniform() < config_.turn_probability;
  if (n_perp > 0 && (turn || !straight_ok)) {
    const auto& pick = perp[leg.rng.uniform_int(n_perp)];
    h.dx = pick[0];
    h.dy = pick[1];
  } else if (!straight_ok) {
    // Dead end on a single street: reverse.
    h.dx = -h.dx;
    h.dy = -h.dy;
  }
  h.ix += h.dx;
  h.iy += h.dy;
  leg.to = intersection(h.ix, h.iy);
  leg.speed = leg.rng.uniform(config_.v_min, config_.v_max);
  leg.arrive = leg.depart + geo::distance(leg.from, leg.to) / leg.speed;
  leg.next_depart = leg.arrive + config_.pause_s;
}

}  // namespace precinct::mobility
