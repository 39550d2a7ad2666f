// Unit tests for the wireless substrate: delivery semantics, MAC
// serialization, energy charging, failure injection, message accounting.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "mobility/static_placement.hpp"
#include "mobility/random_waypoint.hpp"
#include "net/spatial_grid.hpp"
#include "net/wireless_net.hpp"
#include "support/rng.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace {

using namespace precinct;
using net::NodeId;
using net::Packet;
using net::PacketKind;

struct NetFixture : ::testing::Test {
  // Three nodes on a line, 200 m apart, range 250 m: 0-1 and 1-2 are
  // links; 0-2 is out of range.
  NetFixture()
      : placement({{0, 0}, {200, 0}, {400, 0}}),
        net(sim, placement, config(), energy::FeeneyModel{}, 1) {}

  static net::WirelessConfig config() {
    net::WirelessConfig c;
    c.range_m = 250.0;
    c.jitter_s = 0.0;  // deterministic timing in tests
    return c;
  }

  Packet packet_from(NodeId src, PacketKind kind = PacketKind::kRequest) {
    Packet p;
    p.id = net.next_packet_id();
    p.kind = kind;
    p.origin = src;
    p.src = src;
    p.size_bytes = 100;
    return p;
  }

  sim::Simulator sim;
  mobility::StaticPlacement placement;
  net::WirelessNet net;
};

TEST_F(NetFixture, NeighborsRespectRange) {
  EXPECT_EQ(net.neighbors(0), (std::vector<NodeId>{1}));
  EXPECT_EQ(net.neighbors(1), (std::vector<NodeId>{0, 2}));
  EXPECT_TRUE(net.in_range(0, 1));
  EXPECT_FALSE(net.in_range(0, 2));
  EXPECT_FALSE(net.in_range(1, 1));
}

TEST_F(NetFixture, BroadcastReachesInRangeNodesOnly) {
  std::vector<NodeId> received;
  net.set_receive_handler(
      [&](NodeId self, const Packet&) { received.push_back(self); });
  net.broadcast(packet_from(1));
  sim.run_all();
  EXPECT_EQ(received, (std::vector<NodeId>{0, 2}));
}

TEST_F(NetFixture, BroadcastExcludesSender) {
  std::vector<NodeId> received;
  net.set_receive_handler(
      [&](NodeId self, const Packet&) { received.push_back(self); });
  net.broadcast(packet_from(0));
  sim.run_all();
  EXPECT_EQ(received, (std::vector<NodeId>{1}));
}

TEST_F(NetFixture, UnicastDeliversToTargetOnly) {
  std::vector<NodeId> received;
  net.set_receive_handler(
      [&](NodeId self, const Packet&) { received.push_back(self); });
  net.unicast(packet_from(1), 2);
  sim.run_all();
  EXPECT_EQ(received, (std::vector<NodeId>{2}));
  EXPECT_EQ(net.frames_lost(), 0u);
}

TEST_F(NetFixture, UnicastOutOfRangeIsLost) {
  int received = 0;
  net.set_receive_handler([&](NodeId, const Packet&) { ++received; });
  net.unicast(packet_from(0), 2);  // 400 m apart
  sim.run_all();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.frames_lost(), 1u);
}

TEST_F(NetFixture, DeliveryTakesPositiveTime) {
  double delivered_at = -1.0;
  net.set_receive_handler(
      [&](NodeId, const Packet&) { delivered_at = sim.now(); });
  net.broadcast(packet_from(0));
  sim.run_all();
  EXPECT_GT(delivered_at, 0.0);
  // 100 bytes at 11 Mbps + MAC overhead + propagation + processing.
  EXPECT_LT(delivered_at, 0.01);
}

TEST_F(NetFixture, MacSerializesBackToBackFrames) {
  std::vector<double> deliveries;
  net.set_receive_handler(
      [&](NodeId self, const Packet&) {
        if (self == 1) deliveries.push_back(sim.now());
      });
  net.broadcast(packet_from(0));
  net.broadcast(packet_from(0));  // queued behind the first
  sim.run_all();
  ASSERT_EQ(deliveries.size(), 2u);
  const double gap = deliveries[1] - deliveries[0];
  // Second frame waits for the first's airtime (>= mac overhead).
  EXPECT_GE(gap, config().mac_overhead_s * 0.99);
}

TEST_F(NetFixture, BroadcastChargesSenderAndReceivers) {
  net.set_receive_handler([](NodeId, const Packet&) {});
  net.broadcast(packet_from(1));
  sim.run_all();
  const auto& acc = net.energy();
  EXPECT_GT(acc.node(1).broadcast_send_mj, 0.0);
  EXPECT_GT(acc.node(0).broadcast_recv_mj, 0.0);
  EXPECT_GT(acc.node(2).broadcast_recv_mj, 0.0);
  EXPECT_EQ(acc.node(1).broadcast_recv_mj, 0.0);
}

TEST_F(NetFixture, UnicastChargesOverhearers) {
  net.set_receive_handler([](NodeId, const Packet&) {});
  net.unicast(packet_from(1), 0);
  sim.run_all();
  const auto& acc = net.energy();
  EXPECT_GT(acc.node(1).p2p_send_mj, 0.0);
  EXPECT_GT(acc.node(0).p2p_recv_mj, 0.0);
  EXPECT_GT(acc.node(2).p2p_discard_mj, 0.0);  // overheard, discarded
}

TEST_F(NetFixture, KilledNodeNeitherSendsNorReceives) {
  int received = 0;
  net.set_receive_handler([&](NodeId, const Packet&) { ++received; });
  net.kill(1);
  EXPECT_FALSE(net.is_alive(1));
  EXPECT_EQ(net.alive_count(), 2u);
  net.broadcast(packet_from(0));  // only neighbor was 1
  sim.run_all();
  EXPECT_EQ(received, 0);
  net.broadcast(packet_from(1));  // dead sender: dropped
  sim.run_all();
  EXPECT_EQ(received, 0);
}

TEST_F(NetFixture, ReviveRestoresNode) {
  net.kill(1);
  net.revive(1);
  EXPECT_TRUE(net.is_alive(1));
  int received = 0;
  net.set_receive_handler([&](NodeId, const Packet&) { ++received; });
  net.broadcast(packet_from(0));
  sim.run_all();
  EXPECT_EQ(received, 1);
}

TEST_F(NetFixture, DeadNodesAreNotNeighbors) {
  net.kill(1);
  EXPECT_TRUE(net.neighbors(0).empty());
  EXPECT_FALSE(net.in_range(0, 1));
}

TEST_F(NetFixture, StatsCountSendsAndDeliveries) {
  net.set_receive_handler([](NodeId, const Packet&) {});
  net.broadcast(packet_from(1, PacketKind::kRequest));
  net.unicast(packet_from(1, PacketKind::kResponse), 0);
  sim.run_all();
  EXPECT_EQ(net.stats().sends(PacketKind::kRequest), 1u);
  EXPECT_EQ(net.stats().deliveries(PacketKind::kRequest), 2u);
  EXPECT_EQ(net.stats().sends(PacketKind::kResponse), 1u);
  EXPECT_EQ(net.stats().deliveries(PacketKind::kResponse), 1u);
  EXPECT_EQ(net.stats().bytes_sent(PacketKind::kRequest), 100u);
  EXPECT_EQ(net.stats().total_sends(), 2u);
}

TEST_F(NetFixture, ConsistencySendsCoverConsistencyKinds) {
  net.set_receive_handler([](NodeId, const Packet&) {});
  net.broadcast(packet_from(1, PacketKind::kInvalidation));
  net.unicast(packet_from(1, PacketKind::kPoll), 0);
  net.unicast(packet_from(1, PacketKind::kPollReply), 0);
  net.unicast(packet_from(1, PacketKind::kUpdatePush), 0);
  net.unicast(packet_from(1, PacketKind::kPushAck), 0);
  net.broadcast(packet_from(1, PacketKind::kRequest));  // not consistency
  sim.run_all();
  EXPECT_EQ(net.stats().consistency_sends(), 5u);
}

TEST(MessageStats, ToStringCoversAllKinds) {
  for (int k = 0; k < 9; ++k) {
    EXPECT_STRNE(net::to_string(static_cast<PacketKind>(k)), "unknown");
  }
}

// ---------------------------------------------------------------------------
// Spatial grid index
// ---------------------------------------------------------------------------

TEST_F(NetFixture, FramesCarrySenderPosition) {
  geo::Point seen{-1, -1};
  net.set_receive_handler([&](NodeId, const Packet& p) {
    seen = p.src_location;
  });
  net.broadcast(packet_from(1));
  sim.run_all();
  EXPECT_EQ(seen, (geo::Point{200, 0}));
}

TEST_F(NetFixture, SnoopHandlerSeesOverheardUnicast) {
  std::vector<NodeId> snoopers;
  net.set_receive_handler([](NodeId, const Packet&) {});
  net.set_snoop_handler([&](NodeId self, const Packet& p) {
    snoopers.push_back(self);
    EXPECT_EQ(p.src_location, (geo::Point{200, 0}));
  });
  net.unicast(packet_from(1), 0);  // node 2 overhears
  sim.run_all();
  EXPECT_EQ(snoopers, (std::vector<NodeId>{2}));
}

TEST(SpatialGrid, RejectsBadConstruction) {
  EXPECT_THROW(net::SpatialGrid({{0, 0}, {0, 100}}, 250.0),
               std::invalid_argument);
  EXPECT_THROW(net::SpatialGrid({{0, 0}, {100, 100}}, 0.0),
               std::invalid_argument);
}

TEST(SpatialGrid, QueryReturnsSupersetOfInRadius) {
  precinct::support::Rng rng(7);
  std::vector<precinct::geo::Point> pts;
  for (int i = 0; i < 300; ++i) {
    pts.push_back({rng.uniform(0, 1200), rng.uniform(0, 1200)});
  }
  // Points the tight cell bracket must not lose: on cell edges (multiples
  // of 250 m), on the area's max edge (1200 m) and outside the area
  // (clamped into the edge cells).
  const std::size_t n_random = pts.size();
  for (const double v : {0.0, 250.0, 500.0, 750.0, 1000.0, 1200.0, -40.0,
                         1240.0}) {
    pts.push_back({v, 600.0});
    pts.push_back({600.0, v});
    pts.push_back({v, v});
  }
  std::vector<double> xs;
  std::vector<double> ys;
  for (const precinct::geo::Point& p : pts) {
    xs.push_back(p.x);
    ys.push_back(p.y);
  }
  net::SpatialGrid grid({{0, 0}, {1200, 1200}}, 250.0);
  grid.rebuild(xs.data(), ys.data(), pts.size());
  EXPECT_EQ(grid.indexed_count(), pts.size());
  const auto expect_covers = [&](precinct::geo::Point q, double radius) {
    std::vector<std::uint32_t> candidates;
    grid.query(q, radius, candidates);
    const std::set<std::uint32_t> cand_set(candidates.begin(),
                                           candidates.end());
    for (std::uint32_t i = 0; i < pts.size(); ++i) {
      if (precinct::geo::distance(pts[i], q) <= radius) {
        EXPECT_TRUE(cand_set.count(i))
            << "missed in-radius node " << i << " at (" << pts[i].x << ", "
            << pts[i].y << ") from (" << q.x << ", " << q.y << ") r "
            << radius;
      }
    }
  };
  for (int trial = 0; trial < 50; ++trial) {
    expect_covers({rng.uniform(0, 1200), rng.uniform(0, 1200)}, 250.0);
  }
  // Every edge point on the very edge of a query box, from each side.
  for (std::size_t i = n_random; i < pts.size(); ++i) {
    for (const double r : {250.0, 100.0, 0.0}) {
      expect_covers({pts[i].x + r, pts[i].y}, r);
      expect_covers({pts[i].x - r, pts[i].y}, r);
      expect_covers({pts[i].x, pts[i].y + r}, r);
      expect_covers({pts[i].x, pts[i].y - r}, r);
    }
  }
}

/// Pairs of nodes moving straight toward or away from each other, each
/// node at exactly `speed`, so that at `query_s` pair k is `gaps[k]`
/// apart.  Pairs sit 600 m apart in y, out of each other's range.
class ScriptedPairs final : public mobility::MobilityModel {
 public:
  struct Pair {
    bool closing;
    double gap_at_query;
  };
  ScriptedPairs(std::vector<Pair> pairs, double speed, double query_s)
      : pairs_(std::move(pairs)), speed_(speed), query_s_(query_s) {}

  geo::Point position_at(std::size_t node, double t) override {
    const Pair& pair = pairs_[node / 2];
    const double direction = pair.closing ? 1.0 : -1.0;
    const double half_gap =
        0.5 * pair.gap_at_query + direction * speed_ * (query_s_ - t);
    const double side = node % 2 == 0 ? -1.0 : 1.0;
    return {1000.0 + side * half_gap,
            100.0 + 600.0 * static_cast<double>(node / 2)};
  }
  double speed_at(std::size_t, double) override { return speed_; }
  std::size_t node_count() const noexcept override {
    return 2 * pairs_.size();
  }

 private:
  std::vector<Pair> pairs_;
  double speed_;
  double query_s_;
};

TEST(NeighborIndex, ExactForNodesAtTheSpeedBoundAroundTheRangeEdge) {
  // Each node of a pair has moved max_node_speed_mps x 0.49 s since the
  // grid snapshot, so its snapshot sits right at the edge of the band the
  // snapshot alone decides; at query time the pair is 1e-7 m inside or
  // outside range.  Only the mobility oracle can tell, and it must be
  // asked.  At exactly the snapshot's staleness a closing pair's
  // snapshots lie as far apart as a skin list must reach, less 1e-7 m.
  net::WirelessConfig wc;
  wc.area = {{0, 0}, {2000, 2500}};
  const double r = wc.range_m;
  const double t0 = 10.0;
  for (const double age : {0.49, wc.spatial_index_staleness_s}) {
    const double tq = t0 + age;
    ScriptedPairs mob({{true, r - 1e-7},
                       {true, r + 1e-7},
                       {false, r - 1e-7},
                       {false, r + 1e-7}},
                      wc.max_node_speed_mps, tq);
    sim::Simulator sim;
    net::WirelessNet net(sim, mob, wc, energy::FeeneyModel{}, 1);
    sim.run_until(t0);
    (void)net.neighbors(0);  // first query: the grid snapshot at t0
    const std::uint64_t epoch = net.topology_epoch();
    sim.run_until(tq);
    for (NodeId n = 0; n < mob.node_count(); ++n) {
      EXPECT_EQ(net.neighbors(n),
                test_util::brute_force_neighbors(mob, n, tq, r))
          << "age " << age << " node " << n;
    }
    EXPECT_EQ(net.topology_epoch(), epoch) << "no snapshot between t0 and tq";
    EXPECT_EQ(net.neighbors(0), (std::vector<NodeId>{1}));
    EXPECT_TRUE(net.neighbors(2).empty());
  }

  // A static world decides from its snapshot alone, at the same edge.
  mobility::StaticPlacement placement({{0, 0},
                                       {r - 1e-7, 0},
                                       {0, 600},
                                       {r + 1e-7, 600},
                                       {0, 1200},
                                       {0, 1200 + r}});
  sim::Simulator static_sim;
  net::WirelessNet static_net(static_sim, placement, wc, energy::FeeneyModel{},
                              1);
  for (NodeId n = 0; n < placement.node_count(); ++n) {
    EXPECT_EQ(static_net.neighbors(n),
              test_util::brute_force_neighbors(placement, n, 0.0, r))
        << "static node " << n;
  }
}

/// Counts oracle calls on their way to the wrapped model.
class CountingMobility final : public mobility::MobilityModel {
 public:
  explicit CountingMobility(mobility::MobilityModel& inner) : inner_(inner) {}
  geo::Point position_at(std::size_t node, double t) override {
    ++calls;
    return inner_.position_at(node, t);
  }
  double speed_at(std::size_t node, double t) override {
    ++calls;
    return inner_.speed_at(node, t);
  }
  std::size_t node_count() const noexcept override {
    return inner_.node_count();
  }

  std::uint64_t calls = 0;

 private:
  mobility::MobilityModel& inner_;
};

TEST(NeighborIndex, FewOracleCallsPerComputedNeighborhood) {
  // The city benchmark's topology: 200 nodes on 1600 m, random waypoint
  // up to 10 m/s.  Only the query node, the ring the grid snapshot
  // cannot decide and the periodic snapshot itself consult the oracle:
  // about 3.4 calls per neighborhood here, where looking up every
  // candidate of a cell-padded 5x5 block costs about 44.
  mobility::RandomWaypointConfig rwp;
  rwp.area = {{0, 0}, {1600, 1600}};
  rwp.v_max = 10.0;
  rwp.pause_s = 5.0;
  mobility::RandomWaypoint inner(200, rwp, 3);
  CountingMobility mob(inner);
  net::WirelessConfig wc;
  wc.area = rwp.area;
  sim::Simulator sim;
  net::WirelessNet net(sim, mob, wc, energy::FeeneyModel{}, 3);
  std::uint64_t computed = 0;
  std::size_t listed = 0;
  for (int step = 0; step < 2000; ++step) {
    sim.run_until(10.0 + 0.01 * step);  // a new timestamp every step
    for (NodeId q = 0; q < 4; ++q) {
      const NodeId node = (7 * static_cast<NodeId>(step) + 53 * q) % 200;
      listed += net.neighbors(node).size();
      ++computed;
      (void)net.neighbors(node);  // same timestamp: served from the cache
    }
  }
  EXPECT_GT(listed, computed);  // real neighborhoods, not empty ones
  EXPECT_LT(static_cast<double>(mob.calls), 8.0 * static_cast<double>(computed))
      << mob.calls << " oracle calls for " << computed << " neighborhoods";
}

TEST(NeighborIndex, StaticWorldComputesEachListOncePerEpoch) {
  // 1,000 query timestamps over 160 nodes that never move, with two kills
  // and a revive among them: a list is computed from the grid only for a
  // (node, epoch) pair not queried before, and every answer equals the
  // uncached reference's, which walks the grid at every query.
  const geo::Rect area{{0, 0}, {1400, 1400}};
  auto placement = mobility::StaticPlacement::uniform(160, area, 11);
  net::WirelessConfig wc;
  wc.area = area;
  net::WirelessConfig uncached_wc = wc;
  uncached_wc.neighbor_cache = false;
  sim::Simulator sim;
  net::WirelessNet net(sim, placement, wc, energy::FeeneyModel{}, 11);
  net::WirelessNet uncached(sim, placement, uncached_wc, energy::FeeneyModel{},
                            11);
  std::set<std::pair<NodeId, std::uint64_t>> queried;
  std::uint64_t queries = 0;
  for (int step = 0; step < 1000; ++step) {
    sim.run_until(0.013 * step);
    for (net::WirelessNet* radio : {&net, &uncached}) {
      if (step == 250) radio->kill(5);
      if (step == 500) radio->revive(5);
      if (step == 750) radio->kill(17);
    }
    for (NodeId q = 0; q < 160; q += 4) {
      EXPECT_EQ(net.neighbors(q), uncached.neighbors(q))
          << "t=" << sim.now() << " node " << q;
      queried.insert({q, net.topology_epoch()});
      ++queries;
    }
  }
  // Epochs: the grid build, the kill, the revive, the second kill.
  EXPECT_EQ(queried.size(), 40u * 4u);
  EXPECT_EQ(net.neighbor_grid_walks(), queried.size());
  EXPECT_EQ(uncached.neighbor_grid_walks(), queries);
}

TEST(NeighborIndex, MobileWorldBuildsOneSkinListPerNodePerSnapshot) {
  // The city benchmark's topology, 20 nodes queried every 10 ms for 20 s:
  // about 50 queries per node between two grid snapshots, all answered
  // from one skin list per (node, snapshot), and each equal to the
  // uncached reference's answer.
  mobility::RandomWaypointConfig rwp;
  rwp.area = {{0, 0}, {1600, 1600}};
  rwp.v_max = 10.0;
  rwp.pause_s = 5.0;
  mobility::RandomWaypoint mob(200, rwp, 3);
  net::WirelessConfig wc;
  wc.area = rwp.area;
  wc.max_node_speed_mps = rwp.v_max;
  net::WirelessConfig uncached_wc = wc;
  uncached_wc.neighbor_cache = false;
  sim::Simulator sim;
  net::WirelessNet net(sim, mob, wc, energy::FeeneyModel{}, 3);
  net::WirelessNet uncached(sim, mob, uncached_wc, energy::FeeneyModel{}, 3);
  std::set<std::pair<NodeId, std::uint64_t>> queried;
  for (int step = 0; step < 2000; ++step) {
    sim.run_until(10.0 + 0.01 * step);
    for (NodeId q = 0; q < 200; q += 10) {
      EXPECT_EQ(net.neighbors(q), uncached.neighbors(q))
          << "t=" << sim.now() << " node " << q;
      // No churn: each epoch is one grid snapshot.
      queried.insert({q, net.topology_epoch()});
    }
  }
  EXPECT_GT(net.topology_epoch(), 30u);  // ~40 snapshots in 20 s
  EXPECT_EQ(net.neighbor_grid_walks(), queried.size());
  EXPECT_EQ(queried.size(), 20u * (net.topology_epoch() - 1));
}

}  // namespace
