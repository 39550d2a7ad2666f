#include "mobility/commuter_flow.hpp"

#include <algorithm>
#include <stdexcept>

namespace precinct::mobility {

namespace {

// Stream id for the hub-placement draws, disjoint from the per-node
// streams (which use ids [0, n_nodes)).
constexpr std::uint64_t kHubStream = 0x48554253ULL;  // "HUBS"

// Departures within a half-period are staggered over its first fifth so
// commuters do not march in lockstep.
constexpr double kStaggerFraction = 0.2;

}  // namespace

CommuterFlow::CommuterFlow(std::size_t n_nodes,
                           const CommuterFlowConfig& config,
                           std::uint64_t seed)
    : LegMobility(n_nodes, seed), config_(config) {
  require_speed_range("CommuterFlow", config.v_min, config.v_max);
  if (config.period_s <= 0.0) {
    throw std::invalid_argument("CommuterFlow: period must be > 0");
  }
  if (config.n_hubs == 0) {
    throw std::invalid_argument("CommuterFlow: need at least one hub");
  }
  half_period_s_ = config_.period_s * 0.5;
  hub_jitter_m_ =
      0.08 * std::min(config_.area.width(), config_.area.height());

  support::Rng hub_rng = support::Rng(seed).split(kHubStream);
  hubs_.reserve(config_.n_hubs);
  for (std::size_t h = 0; h < config_.n_hubs; ++h) {
    hubs_.push_back({hub_rng.uniform(config_.area.min.x, config_.area.max.x),
                     hub_rng.uniform(config_.area.min.y, config_.area.max.y)});
  }

  commutes_.reserve(n_nodes);
  for (Leg& leg : legs_) {
    Commute c;
    c.home = {leg.rng.uniform(config_.area.min.x, config_.area.max.x),
              leg.rng.uniform(config_.area.min.y, config_.area.max.y)};
    c.affinity = leg.rng.uniform_int(config_.n_hubs);
    // Nodes begin the scenario at home; the first commute (phase 0, a
    // day half) departs within the stagger window after t = 0.
    leg.from = leg.to = c.home;
    leg.next_depart = leg.rng.uniform(0.0, kStaggerFraction * half_period_s_);
    commutes_.push_back(c);
  }
}

geo::Point CommuterFlow::target(const Commute& c, support::Rng& rng,
                                std::int64_t phase) const {
  const bool day = (phase % 2) == 0;
  if (!day) return c.home;
  const std::int64_t day_index = phase / 2;
  const std::size_t hub =
      (c.affinity + static_cast<std::size_t>(day_index)) % config_.n_hubs;
  const geo::Point jitter = {rng.uniform(-hub_jitter_m_, hub_jitter_m_),
                             rng.uniform(-hub_jitter_m_, hub_jitter_m_)};
  return config_.area.clamp(hubs_[hub] + jitter);
}

void CommuterFlow::next_leg(std::size_t node, Leg& leg) {
  Commute& c = commutes_[node];
  const std::int64_t phase = c.phase++;
  leg.to = target(c, leg.rng, phase);
  leg.speed = leg.rng.uniform(config_.v_min, config_.v_max);
  leg.arrive = leg.depart + geo::distance(leg.from, leg.to) / leg.speed;
  // The next half-period's leg departs at its staggered offset, or as
  // soon as this (possibly overrunning) leg lands — whichever is later.
  const double nominal =
      static_cast<double>(phase + 1) * half_period_s_ +
      leg.rng.uniform(0.0, kStaggerFraction * half_period_s_);
  leg.next_depart = std::max(nominal, leg.arrive);
}

}  // namespace precinct::mobility
