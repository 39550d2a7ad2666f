// Commuter-flow mobility: day/night density churn around rotating
// attractor hubs (structured mobility, ROADMAP item 3).
//
// Each node owns a fixed home location and a hub affinity.  Simulation
// time is cut into half-periods of `period_s / 2`: during a "day" half
// the node commutes to an attractor hub, during the "night" half it
// returns home.  The attractor a node targets rotates every day
// (`(affinity + day) % n_hubs`), so the dense spots themselves move over
// time — the attractor field is time-varying and `time_invariant()` is
// false by construction, which keeps the radio's static-snapshot fast
// path provably out of play for these scenarios.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/geometry.hpp"
#include "mobility/leg_mobility.hpp"
#include "support/rng.hpp"

namespace precinct::mobility {

struct CommuterFlowConfig {
  geo::Rect area{{0.0, 0.0}, {1200.0, 1200.0}};
  double period_s = 400.0;  ///< one full day/night cycle
  std::size_t n_hubs = 3;   ///< number of attractor hubs
  double v_min = 0.5;       ///< m/s
  double v_max = 3.0;       ///< m/s
};

class CommuterFlow final : public LegMobility {
 public:
  CommuterFlow(std::size_t n_nodes, const CommuterFlowConfig& config,
               std::uint64_t seed);

  /// Hub locations (test introspection).
  [[nodiscard]] const std::vector<geo::Point>& hubs() const noexcept {
    return hubs_;
  }

 private:
  /// A node's fixed home and hub affinity, and where it is in the cycle.
  struct Commute {
    geo::Point home;
    std::size_t affinity = 0;  // base hub index, rotated per day
    std::int64_t phase = 0;    // next half-period to generate a leg for
  };

  /// Where a leg in half-period `phase` ends: a jittered hub by day
  /// (drawn from `rng`), home by night.
  [[nodiscard]] geo::Point target(const Commute& c, support::Rng& rng,
                                  std::int64_t phase) const;
  void next_leg(std::size_t node, Leg& leg) override;

  CommuterFlowConfig config_;
  double half_period_s_ = 0.0;
  double hub_jitter_m_ = 0.0;  // commuters spread around the hub center
  std::vector<geo::Point> hubs_;
  std::vector<Commute> commutes_;  ///< per node
};

}  // namespace precinct::mobility
