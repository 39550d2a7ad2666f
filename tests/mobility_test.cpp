// Unit tests for mobility: random waypoint kinematics, static
// placements, the structured models (Manhattan grid, commuter flow), the
// heterogeneous-fleet composite, and a bit-exact pin of every moving
// model's trajectory.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "mobility/class_mix.hpp"
#include "mobility/commuter_flow.hpp"
#include "mobility/gauss_markov.hpp"
#include "mobility/manhattan_grid.hpp"
#include "mobility/random_direction.hpp"
#include "mobility/random_waypoint.hpp"
#include "mobility/static_placement.hpp"
#include "support/stats.hpp"

namespace {

using namespace precinct::mobility;
using precinct::geo::Point;
using precinct::geo::Rect;

RandomWaypointConfig small_config() {
  RandomWaypointConfig c;
  c.area = Rect{{0, 0}, {1000, 1000}};
  c.v_min = 1.0;
  c.v_max = 10.0;
  c.pause_s = 2.0;
  return c;
}

TEST(RandomWaypoint, PositionsStayInArea) {
  RandomWaypoint rwp(20, small_config(), 1);
  for (double t = 0.0; t < 500.0; t += 3.7) {
    for (std::size_t i = 0; i < 20; ++i) {
      const Point p = rwp.position_at(i, t);
      EXPECT_GE(p.x, 0.0);
      EXPECT_LE(p.x, 1000.0);
      EXPECT_GE(p.y, 0.0);
      EXPECT_LE(p.y, 1000.0);
    }
  }
}

TEST(RandomWaypoint, SpeedRespectsBounds) {
  RandomWaypoint rwp(10, small_config(), 2);
  for (double t = 0.0; t < 300.0; t += 1.1) {
    for (std::size_t i = 0; i < 10; ++i) {
      const double v = rwp.speed_at(i, t);
      EXPECT_TRUE(v == 0.0 || (v >= 1.0 && v <= 10.0));
    }
  }
}

TEST(RandomWaypoint, StartsPaused) {
  RandomWaypoint rwp(5, small_config(), 3);
  for (std::size_t i = 0; i < 5; ++i) {
    const Point p0 = rwp.position_at(i, 0.0);
    const Point p1 = rwp.position_at(i, 1.0);  // within the 2 s pause
    EXPECT_EQ(p0, p1);
    EXPECT_EQ(rwp.speed_at(i, 1.0), 0.0);
  }
}

TEST(RandomWaypoint, MovesAfterPause) {
  RandomWaypoint rwp(5, small_config(), 4);
  int moved = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    const Point p0 = rwp.position_at(i, 0.0);
    const Point later = rwp.position_at(i, 30.0);
    if (precinct::geo::distance(p0, later) > 1.0) ++moved;
  }
  EXPECT_GE(moved, 4);  // overwhelmingly likely all moved
}

TEST(RandomWaypoint, DisplacementBoundedBySpeed) {
  RandomWaypoint rwp(10, small_config(), 5);
  for (std::size_t i = 0; i < 10; ++i) {
    Point prev = rwp.position_at(i, 0.0);
    for (double t = 0.5; t < 100.0; t += 0.5) {
      const Point cur = rwp.position_at(i, t);
      // Max speed 10 m/s over 0.5 s => at most 5 m (+ epsilon).
      EXPECT_LE(precinct::geo::distance(prev, cur), 5.0 + 1e-9);
      prev = cur;
    }
  }
}

TEST(RandomWaypoint, DeterministicForSameSeed) {
  RandomWaypoint a(8, small_config(), 42);
  RandomWaypoint b(8, small_config(), 42);
  for (double t = 0.0; t < 200.0; t += 7.3) {
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(a.position_at(i, t), b.position_at(i, t));
    }
  }
}

TEST(RandomWaypoint, QueryPatternDoesNotPerturbTrajectory) {
  // Querying one node often must not change another node's path.
  RandomWaypoint a(4, small_config(), 9);
  RandomWaypoint b(4, small_config(), 9);
  for (double t = 0.0; t < 100.0; t += 0.1) (void)a.position_at(0, t);
  EXPECT_EQ(a.position_at(3, 100.0), b.position_at(3, 100.0));
}

TEST(RandomWaypoint, RejectsBadConfig) {
  auto c = small_config();
  c.v_min = 0.0;
  EXPECT_THROW(RandomWaypoint(2, c, 1), std::invalid_argument);
  c = small_config();
  c.v_max = 0.5;  // < v_min
  EXPECT_THROW(RandomWaypoint(2, c, 1), std::invalid_argument);
  c = small_config();
  c.pause_s = -1.0;
  EXPECT_THROW(RandomWaypoint(2, c, 1), std::invalid_argument);
}


RandomDirectionConfig rd_config() {
  RandomDirectionConfig c;
  c.area = Rect{{0, 0}, {1000, 1000}};
  c.v_min = 1.0;
  c.v_max = 10.0;
  c.pause_s = 2.0;
  return c;
}

TEST(RandomDirection, PositionsStayInArea) {
  RandomDirection rd(15, rd_config(), 3);
  for (double t = 0.0; t < 400.0; t += 2.3) {
    for (std::size_t i = 0; i < 15; ++i) {
      const Point p = rd.position_at(i, t);
      EXPECT_GE(p.x, 0.0);
      EXPECT_LE(p.x, 1000.0);
      EXPECT_GE(p.y, 0.0);
      EXPECT_LE(p.y, 1000.0);
    }
  }
}

TEST(RandomDirection, LegsEndOnBoundary) {
  // After enough time each node has completed legs; when paused, the
  // node sits on (or extremely near) the area boundary.
  RandomDirection rd(10, rd_config(), 4);
  int boundary_pauses = 0;
  for (double t = 50.0; t < 600.0; t += 1.0) {
    for (std::size_t i = 0; i < 10; ++i) {
      if (rd.speed_at(i, t) == 0.0) {
        const Point p = rd.position_at(i, t);
        const double d_edge =
            std::min(std::min(p.x, 1000.0 - p.x), std::min(p.y, 1000.0 - p.y));
        if (d_edge < 1.0) ++boundary_pauses;
      }
    }
  }
  EXPECT_GT(boundary_pauses, 50);
}

TEST(RandomDirection, DeterministicForSameSeed) {
  RandomDirection a(6, rd_config(), 42);
  RandomDirection b(6, rd_config(), 42);
  for (double t = 0.0; t < 150.0; t += 3.1) {
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_EQ(a.position_at(i, t), b.position_at(i, t));
    }
  }
}

TEST(RandomDirection, RejectsBadConfig) {
  auto c = rd_config();
  c.v_min = 0.0;
  EXPECT_THROW(RandomDirection(2, c, 1), std::invalid_argument);
  c = rd_config();
  c.pause_s = -1.0;
  EXPECT_THROW(RandomDirection(2, c, 1), std::invalid_argument);
}

GaussMarkovConfig gm_config() {
  GaussMarkovConfig c;
  c.area = Rect{{0, 0}, {1000, 1000}};
  c.mean_speed = 5.0;
  return c;
}

TEST(GaussMarkov, PositionsStayInArea) {
  GaussMarkov gm(15, gm_config(), 5);
  for (double t = 0.0; t < 400.0; t += 1.7) {
    for (std::size_t i = 0; i < 15; ++i) {
      const Point p = gm.position_at(i, t);
      EXPECT_GE(p.x, 0.0);
      EXPECT_LE(p.x, 1000.0);
      EXPECT_GE(p.y, 0.0);
      EXPECT_LE(p.y, 1000.0);
    }
  }
}

TEST(GaussMarkov, SpeedRevertsToMean) {
  GaussMarkov gm(20, gm_config(), 6);
  precinct::support::RunningStats speeds;
  for (double t = 100.0; t < 500.0; t += 1.0) {
    for (std::size_t i = 0; i < 20; ++i) speeds.add(gm.speed_at(i, t));
  }
  EXPECT_NEAR(speeds.mean(), 5.0, 1.0);
}

TEST(GaussMarkov, MotionIsTemporallyCorrelated) {
  // Consecutive 1 s displacements should point in similar directions far
  // more often than random (the model's whole point vs waypoint teleport
  // turns).  Compare cos-similarity of successive steps.
  GaussMarkov gm(10, gm_config(), 7);
  precinct::support::RunningStats cosims;
  for (std::size_t i = 0; i < 10; ++i) {
    Point prev = gm.position_at(i, 0.0);
    Point cur = gm.position_at(i, 1.0);
    for (double t = 2.0; t < 200.0; t += 1.0) {
      const Point next = gm.position_at(i, t);
      const Point v1 = cur - prev;
      const Point v2 = next - cur;
      const double n1 = precinct::geo::norm(v1);
      const double n2 = precinct::geo::norm(v2);
      if (n1 > 1e-6 && n2 > 1e-6) {
        cosims.add((v1.x * v2.x + v1.y * v2.y) / (n1 * n2));
      }
      prev = cur;
      cur = next;
    }
  }
  EXPECT_GT(cosims.mean(), 0.5);
}

TEST(GaussMarkov, TrajectoryIsContinuousWithinItsSpeedClamp) {
  // Across step boundaries too, no node moves faster than the speed clamp
  // (the radio's speed bound is built on it; a trajectory that jumped at
  // each step would void that bound).
  const GaussMarkovConfig c = gm_config();
  GaussMarkov gm(10, c, 9);
  for (std::size_t i = 0; i < 10; ++i) {
    Point prev = gm.position_at(i, 0.0);
    double t_prev = 0.0;
    for (int k = 1; k <= 100000; ++k) {  // 100 s in 1 ms steps
      const double t = 1e-3 * k;
      const Point p = gm.position_at(i, t);
      ASSERT_LE(precinct::geo::distance(p, prev),
                c.max_speed() * (t - t_prev) + 1e-9)
          << "node " << i << " at t=" << t;
      prev = p;
      t_prev = t;
    }
  }
}

TEST(GaussMarkov, DeterministicForSameSeed) {
  GaussMarkov a(5, gm_config(), 11);
  GaussMarkov b(5, gm_config(), 11);
  for (double t = 0.0; t < 100.0; t += 2.7) {
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(a.position_at(i, t), b.position_at(i, t));
    }
  }
}

TEST(GaussMarkov, RejectsBadConfig) {
  auto c = gm_config();
  c.alpha = 1.5;
  EXPECT_THROW(GaussMarkov(2, c, 1), std::invalid_argument);
  c = gm_config();
  c.mean_speed = 0.0;
  EXPECT_THROW(GaussMarkov(2, c, 1), std::invalid_argument);
}

ManhattanGridConfig mg_config() {
  ManhattanGridConfig c;
  c.area = Rect{{0, 0}, {1000, 1000}};
  c.street_spacing_m = 100.0;
  c.turn_probability = 0.25;
  c.v_min = 2.0;
  c.v_max = 14.0;
  c.pause_s = 2.0;
  return c;
}

TEST(ManhattanGrid, PositionsStayInArea) {
  ManhattanGrid mg(20, mg_config(), 1);
  for (double t = 0.0; t < 500.0; t += 3.7) {
    for (std::size_t i = 0; i < 20; ++i) {
      const Point p = mg.position_at(i, t);
      EXPECT_GE(p.x, 0.0);
      EXPECT_LE(p.x, 1000.0);
      EXPECT_GE(p.y, 0.0);
      EXPECT_LE(p.y, 1000.0);
    }
  }
}

TEST(ManhattanGrid, PositionsAreLaneSnapped) {
  // A vehicle is always on a street line: at least one coordinate sits on
  // a multiple of the street spacing.  This is the model's structural
  // promise — no mid-block shortcuts.
  ManhattanGrid mg(15, mg_config(), 2);
  const auto on_street = [](double v) {
    const double r = std::fmod(v, 100.0);
    return std::min(r, 100.0 - r) < 1e-6;
  };
  for (double t = 0.0; t < 400.0; t += 1.3) {
    for (std::size_t i = 0; i < 15; ++i) {
      const Point p = mg.position_at(i, t);
      EXPECT_TRUE(on_street(p.x) || on_street(p.y))
          << "node " << i << " at t=" << t << " is mid-block: (" << p.x
          << ", " << p.y << ")";
    }
  }
}

TEST(ManhattanGrid, GridCoversTheArea) {
  // 1000 m area at 100 m spacing, streets on the half-open max edge
  // dropped: 10 intersections per axis.
  ManhattanGrid mg(4, mg_config(), 3);
  EXPECT_EQ(mg.columns(), 10u);
  EXPECT_EQ(mg.rows(), 10u);
}

TEST(ManhattanGrid, SpeedRespectsBoundsAndPauses) {
  ManhattanGrid mg(10, mg_config(), 4);
  int paused = 0;
  for (double t = 0.0; t < 300.0; t += 1.1) {
    for (std::size_t i = 0; i < 10; ++i) {
      const double v = mg.speed_at(i, t);
      EXPECT_TRUE(v == 0.0 || (v >= 2.0 && v <= 14.0));
      if (v == 0.0) ++paused;
    }
  }
  EXPECT_GT(paused, 0);  // intersection pauses exist
}

TEST(ManhattanGrid, DeterministicForSameSeed) {
  ManhattanGrid a(8, mg_config(), 42);
  ManhattanGrid b(8, mg_config(), 42);
  for (double t = 0.0; t < 200.0; t += 7.3) {
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(a.position_at(i, t), b.position_at(i, t));
    }
  }
}

TEST(ManhattanGrid, QueryPatternDoesNotPerturbTrajectory) {
  ManhattanGrid a(4, mg_config(), 9);
  ManhattanGrid b(4, mg_config(), 9);
  for (double t = 0.0; t < 100.0; t += 0.1) (void)a.position_at(0, t);
  EXPECT_EQ(a.position_at(3, 100.0), b.position_at(3, 100.0));
}

TEST(ManhattanGrid, RejectsBadConfig) {
  auto c = mg_config();
  c.v_min = 0.0;
  EXPECT_THROW(ManhattanGrid(2, c, 1), std::invalid_argument);
  c = mg_config();
  c.turn_probability = 1.5;
  EXPECT_THROW(ManhattanGrid(2, c, 1), std::invalid_argument);
  c = mg_config();
  c.street_spacing_m = 0.0;
  EXPECT_THROW(ManhattanGrid(2, c, 1), std::invalid_argument);
  c = mg_config();
  c.street_spacing_m = 2000.0;  // fewer than 2x2 intersections fit
  EXPECT_THROW(ManhattanGrid(2, c, 1), std::invalid_argument);
}

CommuterFlowConfig cf_config() {
  CommuterFlowConfig c;
  c.area = Rect{{0, 0}, {400, 400}};
  c.period_s = 1000.0;  // long enough that every commute completes
  c.n_hubs = 2;
  c.v_min = 2.0;
  c.v_max = 3.0;
  return c;
}

TEST(CommuterFlow, PositionsStayInArea) {
  CommuterFlow cf(20, cf_config(), 1);
  for (double t = 0.0; t < 2500.0; t += 13.7) {
    for (std::size_t i = 0; i < 20; ++i) {
      const Point p = cf.position_at(i, t);
      EXPECT_GE(p.x, 0.0);
      EXPECT_LE(p.x, 400.0);
      EXPECT_GE(p.y, 0.0);
      EXPECT_LE(p.y, 400.0);
    }
  }
}

TEST(CommuterFlow, IsNeverTimeInvariant) {
  // The attractor field churns with the clock, so the radio's static
  // snapshot fast path must stay off even for a momentarily still fleet.
  CommuterFlow cf(5, cf_config(), 2);
  EXPECT_FALSE(cf.time_invariant());
}

TEST(CommuterFlow, HubsLieInsideTheArea) {
  CommuterFlow cf(5, cf_config(), 3);
  ASSERT_EQ(cf.hubs().size(), 2u);
  for (const Point& h : cf.hubs()) {
    EXPECT_TRUE((Rect{{0, 0}, {400, 400}}).contains(h));
  }
}

TEST(CommuterFlow, DayPhaseGathersTheFleetAtHubs) {
  // Worst-case commute: 566 m diagonal at v_min 2 m/s = 283 s, plus the
  // staggered departure (<= 20% of the 500 s half-period).  By t = 450
  // every node has reached its day target, which sits within the hub
  // jitter radius (8% of the area side) of a hub center.
  CommuterFlow cf(30, cf_config(), 4);
  for (std::size_t i = 0; i < 30; ++i) {
    const Point p = cf.position_at(i, 450.0);
    double nearest = 1e9;
    for (const Point& h : cf.hubs()) {
      nearest = std::min(nearest, precinct::geo::distance(p, h));
    }
    EXPECT_LT(nearest, 50.0) << "node " << i << " not at a hub by day's end";
  }
}

TEST(CommuterFlow, NightPhaseReturnsEveryNodeHome) {
  // At t = 0 a node has not yet departed (staggered start), so it sits at
  // home; by late night (t = 950) the return commute has completed and it
  // sits at home again — exactly.  The oracle is monotone per node, so
  // capture the homes before advancing anyone.
  CommuterFlow cf(30, cf_config(), 5);
  std::vector<Point> homes;
  for (std::size_t i = 0; i < 30; ++i) homes.push_back(cf.position_at(i, 0.0));
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(cf.position_at(i, 950.0), homes[i]) << "node " << i;
  }
}

TEST(CommuterFlow, DeterministicForSameSeed) {
  CommuterFlow a(8, cf_config(), 42);
  CommuterFlow b(8, cf_config(), 42);
  for (double t = 0.0; t < 1500.0; t += 17.3) {
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(a.position_at(i, t), b.position_at(i, t));
    }
  }
}

TEST(CommuterFlow, RejectsBadConfig) {
  auto c = cf_config();
  c.period_s = 0.0;
  EXPECT_THROW(CommuterFlow(2, c, 1), std::invalid_argument);
  c = cf_config();
  c.n_hubs = 0;
  EXPECT_THROW(CommuterFlow(2, c, 1), std::invalid_argument);
  c = cf_config();
  c.v_min = 0.0;
  EXPECT_THROW(CommuterFlow(2, c, 1), std::invalid_argument);
}

TEST(ClassMix, RoutesQueriesToTheOwningPart) {
  // A fleet of 3 fixed units then 4 waypoint phones: the composite must
  // agree with standalone models queried at class-local ids.
  std::vector<std::unique_ptr<MobilityModel>> parts;
  parts.push_back(std::make_unique<StaticPlacement>(
      StaticPlacement::uniform(3, {{0, 0}, {500, 500}}, 7)));
  parts.push_back(std::make_unique<RandomWaypoint>(4, small_config(), 11));
  ClassMix mix(std::move(parts));
  EXPECT_EQ(mix.node_count(), 7u);
  EXPECT_EQ(mix.part_count(), 2u);

  auto solo_static = StaticPlacement::uniform(3, {{0, 0}, {500, 500}}, 7);
  RandomWaypoint solo_rwp(4, small_config(), 11);
  for (double t = 0.0; t < 120.0; t += 4.7) {
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(mix.position_at(i, t), solo_static.position_at(i, t));
    }
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(mix.position_at(3 + j, t), solo_rwp.position_at(j, t));
      EXPECT_EQ(mix.speed_at(3 + j, t), solo_rwp.speed_at(j, t));
    }
  }
}

TEST(ClassMix, TimeInvariantOnlyWhenEveryPartIs) {
  std::vector<std::unique_ptr<MobilityModel>> all_static;
  all_static.push_back(std::make_unique<StaticPlacement>(
      StaticPlacement::uniform(2, {{0, 0}, {100, 100}}, 1)));
  all_static.push_back(std::make_unique<StaticPlacement>(
      StaticPlacement::uniform(2, {{0, 0}, {100, 100}}, 2)));
  EXPECT_TRUE(ClassMix(std::move(all_static)).time_invariant());

  std::vector<std::unique_ptr<MobilityModel>> mixed;
  mixed.push_back(std::make_unique<StaticPlacement>(
      StaticPlacement::uniform(2, {{0, 0}, {100, 100}}, 1)));
  mixed.push_back(std::make_unique<RandomWaypoint>(2, small_config(), 3));
  EXPECT_FALSE(ClassMix(std::move(mixed)).time_invariant());
}

TEST(ClassMix, RejectsEmptyOrNullParts) {
  EXPECT_THROW(ClassMix(std::vector<std::unique_ptr<MobilityModel>>{}),
               std::invalid_argument);
  std::vector<std::unique_ptr<MobilityModel>> with_null;
  with_null.push_back(nullptr);
  EXPECT_THROW(ClassMix(std::move(with_null)), std::invalid_argument);
}

TEST(StaticPlacement, UniformStaysInArea) {
  const Rect area{{100, 100}, {200, 300}};
  auto sp = StaticPlacement::uniform(50, area, 7);
  EXPECT_EQ(sp.node_count(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_TRUE(area.contains(sp.position_at(i, 0.0)));
    EXPECT_EQ(sp.speed_at(i, 123.0), 0.0);
  }
}

TEST(StaticPlacement, PositionsNeverChange) {
  auto sp = StaticPlacement::uniform(10, {{0, 0}, {100, 100}}, 8);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(sp.position_at(i, 0.0), sp.position_at(i, 1e6));
  }
}

TEST(StaticPlacement, GridCoversArea) {
  auto sp = StaticPlacement::grid(9, {{0, 0}, {300, 300}});
  EXPECT_EQ(sp.node_count(), 9u);
  // 3x3 grid: all cell centers distinct and inside.
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = i + 1; j < 9; ++j) {
      EXPECT_GT(precinct::geo::distance(sp.position_at(i, 0), sp.position_at(j, 0)),
                1.0);
    }
  }
}

TEST(StaticPlacement, ExplicitPositions) {
  StaticPlacement sp({{1, 2}, {3, 4}});
  EXPECT_EQ(sp.node_count(), 2u);
  EXPECT_EQ(sp.position_at(1, 0.0), (Point{3, 4}));
}

// Trajectory pin: every moving model, bit for bit.  The expected digests
// were printed by the build before RandomWaypoint, RandomDirection,
// ManhattanGrid and CommuterFlow moved onto LegMobility; a change to any
// per-node draw order or floating-point expression changes a digest.  No
// byte-identical scenario gate runs RandomDirection or GaussMarkov.

/// FNV-1a over the bit patterns of x, y and speed_at for every node at
/// t = 0, 0.37, 0.74, ... below 3,000 s.
std::uint64_t trajectory_digest(MobilityModel& model) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (bits >> shift) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (int k = 0; 0.37 * k < 3000.0; ++k) {
    const double t = 0.37 * k;
    for (std::size_t i = 0; i < model.node_count(); ++i) {
      const Point p = model.position_at(i, t);
      mix(p.x);
      mix(p.y);
      mix(model.speed_at(i, t));
    }
  }
  return h;
}

std::unique_ptr<MobilityModel> two_class_mix() {
  std::vector<std::unique_ptr<MobilityModel>> parts;
  parts.push_back(
      std::make_unique<ManhattanGrid>(30, ManhattanGridConfig{}, 21));
  parts.push_back(
      std::make_unique<RandomWaypoint>(30, RandomWaypointConfig{}, 22));
  return std::make_unique<ClassMix>(std::move(parts));
}

TEST(MobilityTrajectory, MatchesDigestsFromTheParent) {
  struct Case {
    const char* name;
    std::unique_ptr<MobilityModel> model;
    std::uint64_t digest;
  };
  Case cases[] = {
      {"RandomWaypoint",
       std::make_unique<RandomWaypoint>(60, RandomWaypointConfig{}, 11),
       0x06925c704e1fdea3ULL},
      {"RandomDirection",
       std::make_unique<RandomDirection>(60, RandomDirectionConfig{}, 12),
       0x9859163cbdd63010ULL},
      {"ManhattanGrid",
       std::make_unique<ManhattanGrid>(60, ManhattanGridConfig{}, 13),
       0x85146fd681000dacULL},
      {"CommuterFlow",
       std::make_unique<CommuterFlow>(60, CommuterFlowConfig{}, 14),
       0x0eab35c2714c9f2bULL},
      {"GaussMarkov",
       std::make_unique<GaussMarkov>(60, GaussMarkovConfig{}, 15),
       0xd234a57e9521c793ULL},
      {"ClassMix", two_class_mix(), 0x45a52ddd22e24a65ULL},
  };
  for (Case& c : cases) {
    ASSERT_EQ(c.model->node_count(), 60u) << c.name;
    EXPECT_EQ(trajectory_digest(*c.model), c.digest) << c.name;
  }
}

}  // namespace
