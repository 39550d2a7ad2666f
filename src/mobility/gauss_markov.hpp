// Gauss-Markov mobility: velocity evolves as a first-order autoregressive
// process, producing smooth, temporally correlated motion (no sharp
// waypoint turns).  The memory parameter alpha tunes between Brownian
// (alpha=0) and straight-line (alpha=1) motion.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/geometry.hpp"
#include "mobility/mobility_model.hpp"
#include "support/rng.hpp"

namespace precinct::mobility {

struct GaussMarkovConfig {
  geo::Rect area{{0.0, 0.0}, {1200.0, 1200.0}};
  double mean_speed = 4.0;     ///< long-run speed the process reverts to
  double speed_sigma = 1.5;    ///< per-step speed randomness
  double heading_sigma = 0.6;  ///< per-step heading randomness (radians)
  double alpha = 0.75;         ///< memory in [0, 1]
  double step_s = 1.0;         ///< discretization step

  /// Fastest a node ever moves: each step clamps its speed here.
  [[nodiscard]] double max_speed() const noexcept { return 4.0 * mean_speed; }
};

class GaussMarkov final : public MobilityModel {
 public:
  GaussMarkov(std::size_t n_nodes, const GaussMarkovConfig& config,
              std::uint64_t seed);

  [[nodiscard]] geo::Point position_at(std::size_t node, double t) override;
  [[nodiscard]] double speed_at(std::size_t node, double t) override;
  [[nodiscard]] std::size_t node_count() const noexcept override {
    return states_.size();
  }

 private:
  struct State {
    support::Rng rng;
    geo::Point pos;       // position at step_start
    double speed = 0.0;   // speed and heading of the step under way
    double heading = 0.0;
    double step_start = 0.0;
  };

  void advance(State& s, double t) const;
  /// Finish the step under way, then draw the next one's speed/heading
  /// (AR(1)), reflecting at area edges.
  void step(State& s) const;
  /// Where the step under way ends (clamped into the area).
  [[nodiscard]] geo::Point step_end(const State& s) const;

  GaussMarkovConfig config_;
  std::vector<State> states_;
};

}  // namespace precinct::mobility
