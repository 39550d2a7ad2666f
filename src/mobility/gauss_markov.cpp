#include "mobility/gauss_markov.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace precinct::mobility {

namespace {
/// Standard normal via Box-Muller on the deterministic Rng.
double gaussian(support::Rng& rng) {
  const double u1 = std::max(1e-12, rng.uniform());
  const double u2 = rng.uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}
}  // namespace

GaussMarkov::GaussMarkov(std::size_t n_nodes, const GaussMarkovConfig& config,
                         std::uint64_t seed)
    : config_(config) {
  if (config.alpha < 0.0 || config.alpha > 1.0) {
    throw std::invalid_argument("GaussMarkov: alpha must be in [0, 1]");
  }
  if (config.mean_speed <= 0.0 || config.step_s <= 0.0) {
    throw std::invalid_argument("GaussMarkov: speeds and step must be > 0");
  }
  const support::Rng root(seed);
  states_.reserve(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    State s{root.split(i), {}, 0.0, 0.0, 0.0};
    s.pos = {s.rng.uniform(config_.area.min.x, config_.area.max.x),
             s.rng.uniform(config_.area.min.y, config_.area.max.y)};
    s.speed = config_.mean_speed;
    s.heading = s.rng.uniform(0.0, 2.0 * std::numbers::pi);
    states_.push_back(std::move(s));
  }
}

void GaussMarkov::step(State& s) const {
  // Land where position_at has been heading, so the trajectory is
  // continuous and never faster than the speed of the step under way.
  s.pos = step_end(s);
  s.step_start += config_.step_s;

  const double a = config_.alpha;
  const double decay = std::sqrt(std::max(0.0, 1.0 - a * a));
  s.speed = a * s.speed + (1.0 - a) * config_.mean_speed +
            decay * config_.speed_sigma * gaussian(s.rng);
  s.speed = std::clamp(s.speed, 0.0, config_.max_speed());
  // Heading is a random walk (its "mean" is the previous heading): an
  // AR(1) pull toward a fixed angle would make the whole fleet drift one
  // way and pile up on a boundary.
  s.heading += decay * config_.heading_sigma * gaussian(s.rng);

  // Reflect at the boundary (standard Gauss-Markov edge handling): a step
  // that would leave the area mirrors its heading; step_end clamps what
  // still sticks out (corners).
  const double reach = s.speed * config_.step_s;
  const double x = s.pos.x + reach * std::cos(s.heading);
  const double y = s.pos.y + reach * std::sin(s.heading);
  if (x < config_.area.min.x || x >= config_.area.max.x) {
    s.heading = std::numbers::pi - s.heading;
  }
  if (y < config_.area.min.y || y >= config_.area.max.y) {
    s.heading = -s.heading;
  }
}

geo::Point GaussMarkov::step_end(const State& s) const {
  const double reach = s.speed * config_.step_s;
  return config_.area.clamp({s.pos.x + reach * std::cos(s.heading),
                             s.pos.y + reach * std::sin(s.heading)});
}

void GaussMarkov::advance(State& s, double t) const {
  while (t >= s.step_start + config_.step_s) step(s);
}

geo::Point GaussMarkov::position_at(std::size_t node, double t) {
  State& s = states_.at(node);
  advance(s, t);
  // Linear interpolation within the current step.
  const double frac =
      std::clamp((t - s.step_start) / config_.step_s, 0.0, 1.0);
  return s.pos + (step_end(s) - s.pos) * frac;
}

double GaussMarkov::speed_at(std::size_t node, double t) {
  State& s = states_.at(node);
  advance(s, t);
  return s.speed;
}

}  // namespace precinct::mobility
