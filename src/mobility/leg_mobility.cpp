#include "mobility/leg_mobility.hpp"

#include <stdexcept>
#include <string>

namespace precinct::mobility {

LegMobility::LegMobility(std::size_t n_nodes, std::uint64_t seed) {
  const support::Rng root(seed);
  legs_.reserve(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    legs_.push_back(Leg{root.split(i), {}, {}, 0.0, 0.0, 0.0, 0.0});
  }
}

void LegMobility::require_speed_range(const char* model, double v_min,
                                      double v_max) {
  if (v_min <= 0.0 || v_max < v_min) {
    throw std::invalid_argument(std::string(model) +
                                ": need 0 < v_min <= v_max");
  }
}

LegMobility::Leg& LegMobility::advance(std::size_t node, double t) {
  Leg& leg = legs_.at(node);
  while (t > leg.next_depart) {
    leg.from = leg.to;
    leg.depart = leg.next_depart;
    next_leg(node, leg);
  }
  return leg;
}

geo::Point LegMobility::position_at(std::size_t node, double t) {
  const Leg& leg = advance(node, t);
  if (t >= leg.arrive) return leg.to;  // resting at the leg's end
  if (t <= leg.depart) return leg.from;
  const double frac = (t - leg.depart) / (leg.arrive - leg.depart);
  return leg.from + (leg.to - leg.from) * frac;
}

double LegMobility::speed_at(std::size_t node, double t) {
  const Leg& leg = advance(node, t);
  return (t > leg.depart && t < leg.arrive) ? leg.speed : 0.0;
}

}  // namespace precinct::mobility
