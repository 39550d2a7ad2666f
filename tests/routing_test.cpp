// Unit tests for routing: GPSR greedy/perimeter behavior, Gabriel
// planarization, flood dedup, expanding-ring TTL schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mobility/static_placement.hpp"
#include "net/wireless_net.hpp"
#include "routing/expanding_ring.hpp"
#include "routing/flood.hpp"
#include "routing/gpsr.hpp"
#include "routing/neighbor_provider.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace precinct;
using geo::Point;
using net::NodeId;

struct RoutingHarness {
  explicit RoutingHarness(std::vector<Point> positions)
      : placement(std::move(positions)),
        net(sim, placement, config(), energy::FeeneyModel{}, 1),
        gpsr(net) {}

  static net::WirelessConfig config() {
    net::WirelessConfig c;
    c.range_m = 250.0;
    c.jitter_s = 0.0;
    return c;
  }

  /// Walk a packet from `from` toward `dest`; returns the node ids
  /// visited (including start), stopping on arrival within `arrive_m` of
  /// dest, a drop, or `max_hops`.
  std::vector<NodeId> walk(NodeId from, Point dest, int max_hops = 64,
                           double arrive_m = 10.0) {
    net::Packet p;
    p.dest_location = dest;
    p.ttl = max_hops;
    p.src = net::kNoNode;
    std::vector<NodeId> visited{from};
    NodeId self = from;
    for (int i = 0; i < max_hops; ++i) {
      if (geo::distance(net.position(self), dest) <= arrive_m) break;
      const auto next = gpsr.next_hop(self, p);
      if (!next.has_value()) break;
      p.src = self;
      p.hops += 1;
      self = *next;
      visited.push_back(self);
    }
    return visited;
  }

  sim::Simulator sim;
  mobility::StaticPlacement placement;
  net::WirelessNet net;
  routing::Gpsr gpsr;
};

TEST(Gpsr, GreedyPicksClosestProgressingNeighbor) {
  // Chain 0-(200)-1-(200)-2; destination beyond node 2.
  RoutingHarness h({{0, 0}, {200, 0}, {400, 0}});
  const auto hop = h.gpsr.greedy_next_hop(0, {600, 0});
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(*hop, 1u);
}

TEST(Gpsr, GreedyFailsAtLocalMinimum) {
  // Node 0's only neighbor is farther from the destination than itself.
  RoutingHarness h({{0, 0}, {-200, 0}});
  EXPECT_FALSE(h.gpsr.greedy_next_hop(0, {300, 0}).has_value());
}

TEST(Gpsr, GreedyChainReachesDestination) {
  RoutingHarness h({{0, 0}, {200, 0}, {400, 0}, {600, 0}, {800, 0}});
  const auto path = h.walk(0, {800, 0});
  EXPECT_EQ(path.back(), 4u);
  EXPECT_EQ(path, (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST(Gpsr, PerimeterRoutesAroundVoid) {
  // A "U" void: direct line 0 -> dest is empty; the detour goes south.
  // 0 at origin, destination to the east, a wall of missing nodes in
  // between, and a chain of nodes curving below.
  RoutingHarness h({
      {0, 0},       // 0 source
      {150, -150},  // 1 detour
      {350, -200},  // 2 detour
      {550, -150},  // 3 detour
      {700, 0},     // 4 destination-adjacent
  });
  const auto path = h.walk(0, {700, 0});
  EXPECT_EQ(path.back(), 4u) << "perimeter mode should find the detour";
}

TEST(Gpsr, DropsWhenDestinationUnreachable) {
  // Two disconnected components.
  RoutingHarness h({{0, 0}, {150, 0}, {1000, 1000}});
  const auto path = h.walk(0, {1000, 1000});
  EXPECT_NE(path.back(), 2u);
  EXPECT_LE(path.size(), 10u);  // gives up quickly, no infinite loop
}

TEST(Gpsr, PlanarNeighborsSubsetOfNeighbors) {
  RoutingHarness h({{0, 0},
                    {100, 0},
                    {50, 80},
                    {200, 40},
                    {120, 160},
                    {30, 210}});
  for (NodeId n = 0; n < 6; ++n) {
    const auto all = h.net.neighbors(n);
    for (const NodeId v : h.gpsr.planar_neighbors(n)) {
      EXPECT_NE(std::find(all.begin(), all.end(), v), all.end());
    }
  }
}

TEST(Gpsr, GabrielEdgeEliminatedByWitness) {
  // w sits inside the circle with diameter (u, v): edge u-v must go.
  RoutingHarness h({{0, 0}, {200, 0}, {100, 10}});
  const auto planar0 = h.gpsr.planar_neighbors(0);
  EXPECT_EQ(std::find(planar0.begin(), planar0.end(), 1u), planar0.end());
  // But both keep the witness as a planar neighbor.
  EXPECT_NE(std::find(planar0.begin(), planar0.end(), 2u), planar0.end());
}

TEST(Gpsr, GabrielKeepsEdgeWithoutWitness) {
  RoutingHarness h({{0, 0}, {200, 0}, {100, 180}});  // witness outside circle
  const auto planar0 = h.gpsr.planar_neighbors(0);
  EXPECT_NE(std::find(planar0.begin(), planar0.end(), 1u), planar0.end());
}

TEST(Gpsr, PlanarGraphStaysConnectedOnRandomTopologies) {
  // Gabriel planarization of a connected unit-disk graph is connected:
  // verify on seeded random layouts by BFS over planar edges.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto placement = mobility::StaticPlacement::uniform(
        40, {{0, 0}, {800, 800}}, seed);
    sim::Simulator sim;
    net::WirelessNet net(sim, placement, RoutingHarness::config(),
                         energy::FeeneyModel{}, 1);
    routing::Gpsr gpsr(net);
    // BFS over the full graph to find the component of node 0.
    auto bfs = [&](auto neighbor_fn) {
      std::set<NodeId> seen{0};
      std::vector<NodeId> queue{0};
      while (!queue.empty()) {
        const NodeId u = queue.back();
        queue.pop_back();
        for (const NodeId v : neighbor_fn(u)) {
          if (seen.insert(v).second) queue.push_back(v);
        }
      }
      return seen;
    };
    const auto full = bfs([&](NodeId u) { return net.neighbors(u); });
    const auto planar = bfs([&](NodeId u) { return gpsr.planar_neighbors(u); });
    EXPECT_EQ(full, planar) << "seed " << seed;
  }
}

TEST(Gpsr, DeliversOnRandomConnectedTopologies) {
  // Property test: on dense random layouts, GPSR (greedy + perimeter)
  // delivers to the node nearest a random destination in one component.
  int attempts = 0;
  int delivered = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RoutingHarness h([&] {
      auto sp = mobility::StaticPlacement::uniform(60, {{0, 0}, {900, 900}},
                                                   seed * 17);
      std::vector<Point> pts;
      for (std::size_t i = 0; i < sp.node_count(); ++i) {
        pts.push_back(sp.position_at(i, 0));
      }
      return pts;
    }());
    support::Rng rng(seed);
    for (int trial = 0; trial < 5; ++trial) {
      const NodeId src = static_cast<NodeId>(rng.uniform_int(60));
      const NodeId dst = static_cast<NodeId>(rng.uniform_int(60));
      if (src == dst) continue;
      // Only count pairs in the same component (flood reachability).
      std::set<NodeId> seen{src};
      std::vector<NodeId> queue{src};
      while (!queue.empty()) {
        const NodeId u = queue.back();
        queue.pop_back();
        for (const NodeId v : h.net.neighbors(u)) {
          if (seen.insert(v).second) queue.push_back(v);
        }
      }
      if (!seen.count(dst)) continue;
      ++attempts;
      const auto path = h.walk(src, h.net.position(dst), 128, 1.0);
      if (path.back() == dst) ++delivered;
    }
  }
  ASSERT_GT(attempts, 10);
  // Perimeter recovery is simplified; expect >= 90 % delivery.
  EXPECT_GE(static_cast<double>(delivered) / attempts, 0.9);
}

TEST(BeaconProvider, TablesFillAndExpire) {
  mobility::StaticPlacement placement({{0, 0}, {100, 0}, {1000, 1000}});
  sim::Simulator sim;
  net::WirelessNet net(sim, placement, RoutingHarness::config(),
                       energy::FeeneyModel{}, 1);
  routing::BeaconNeighborProvider provider(net, 3, /*lifetime_s=*/3.0);
  const auto neighbors_of = [&](NodeId self) {
    std::vector<NodeId> out{99};  // stale contents must be replaced
    provider.neighbors_into(self, out);
    return out;
  };
  provider.on_beacon(0, 1, {100, 0}, 0.0);
  EXPECT_EQ(neighbors_of(0), (std::vector<NodeId>{1}));
  EXPECT_EQ(provider.position_of(0, 1), (Point{100, 0}));
  EXPECT_EQ(provider.table_size(0), 1u);
  // Entries expire when not refreshed within the lifetime.
  sim.run_until(4.0);
  EXPECT_TRUE(neighbors_of(0).empty());
  // Refreshes keep entries alive and update the position.
  provider.on_beacon(0, 1, {120, 0}, 4.0);
  sim.run_until(5.0);
  EXPECT_EQ(provider.position_of(0, 1), (Point{120, 0}));
  EXPECT_EQ(neighbors_of(0), (std::vector<NodeId>{1}));
  provider.clear_node(0);
  EXPECT_TRUE(neighbors_of(0).empty());
}

TEST(BeaconProvider, GpsrRoutesOverBeaconTables) {
  // A static chain; beacons injected manually (as the engine would).
  RoutingHarness h({{0, 0}, {200, 0}, {400, 0}, {600, 0}});
  routing::BeaconNeighborProvider provider(h.net, 4, 5.0);
  for (NodeId n = 0; n < 4; ++n) {
    for (const NodeId nb : h.net.neighbors(n)) {
      provider.on_beacon(n, nb, h.net.position(nb), 0.0);
    }
  }
  routing::Gpsr gpsr(h.net, &provider);
  net::Packet p;
  p.dest_location = {600, 0};
  p.ttl = 16;
  NodeId self = 0;
  std::vector<NodeId> path{0};
  for (int i = 0; i < 8 && self != 3; ++i) {
    const auto next = gpsr.next_hop(self, p);
    ASSERT_TRUE(next.has_value());
    p.src = self;
    self = *next;
    path.push_back(self);
  }
  EXPECT_EQ(path, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(BeaconProvider, StaleEntryAimsAtDepartedNeighbor) {
  // Node 1 "moved away" but node 0's table still lists its old position:
  // greedy happily picks it — exactly the failure mode real GPSR has and
  // radio-fed GPSR can never exhibit.
  RoutingHarness h({{0, 0}, {1000, 1000}});  // 1 is actually unreachable
  routing::BeaconNeighborProvider provider(h.net, 2, 10.0);
  provider.on_beacon(0, 1, {200, 0}, 0.0);  // stale belief
  routing::Gpsr gpsr(h.net, &provider);
  const auto hop = gpsr.greedy_next_hop(0, {600, 0});
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(*hop, 1u);  // chosen from the stale table...
  EXPECT_FALSE(h.net.in_range(0, 1));  // ...but the frame would be lost
}

TEST(FloodController, MarksAndDetectsDuplicates) {
  routing::FloodController fc(3);
  EXPECT_TRUE(fc.mark_seen(0, 7));
  EXPECT_FALSE(fc.mark_seen(0, 7));
  EXPECT_TRUE(fc.has_seen(0, 7));
  EXPECT_FALSE(fc.has_seen(1, 7));  // per-node state
  EXPECT_TRUE(fc.mark_seen(1, 7));
  EXPECT_EQ(fc.duplicates(), 1u);
}

TEST(FloodController, ClearResets) {
  routing::FloodController fc(2);
  fc.mark_seen(0, 1);
  fc.mark_seen(0, 1);
  fc.clear();
  EXPECT_FALSE(fc.has_seen(0, 1));
  EXPECT_EQ(fc.duplicates(), 0u);
}

TEST(FloodController, GrowthPreservesEntries) {
  routing::FloodController fc(1);
  for (std::uint64_t id = 1; id <= 1000; ++id) {
    EXPECT_TRUE(fc.mark_seen(0, id));
  }
  EXPECT_EQ(fc.size(), 1000u);
  EXPECT_GE(fc.capacity(), 1334u);  // stayed under 3/4 load while doubling
  for (std::uint64_t id = 1; id <= 1000; ++id) {
    EXPECT_TRUE(fc.has_seen(0, id));
    EXPECT_FALSE(fc.has_seen(1, id));  // per-node state intact after rehash
  }
  EXPECT_EQ(fc.duplicates(), 0u);
}

TEST(FloodController, ClearKeepsCapacityAndDropsEntries) {
  routing::FloodController fc(4);
  for (std::uint64_t id = 1; id <= 100; ++id) fc.mark_seen(2, id);
  const std::size_t cap = fc.capacity();
  fc.clear();  // generation bump, not a table wipe
  EXPECT_EQ(fc.size(), 0u);
  EXPECT_EQ(fc.capacity(), cap);
  for (std::uint64_t id = 1; id <= 100; ++id) {
    EXPECT_FALSE(fc.has_seen(2, id));
  }
  // Stale slots from the old generation are reusable insert targets.
  for (std::uint64_t id = 1; id <= 100; ++id) {
    EXPECT_TRUE(fc.mark_seen(2, id));
  }
  EXPECT_EQ(fc.size(), 100u);
}

TEST(FloodController, MatchesASetReferenceAcrossDoublingsAndClears) {
  // Seeded differential run: every answer, size() and duplicates() must
  // equal a std::set of (node, id) pairs through 10^5 random calls.
  // Fresh ids keep arriving, so the table doubles many times between
  // clears; extreme ids and out-of-range nodes are mixed in.
  constexpr std::size_t kNodes = 200;
  routing::FloodController fc(kNodes);
  const std::size_t initial_capacity = fc.capacity();
  std::size_t max_capacity = initial_capacity;
  std::set<std::pair<NodeId, std::uint64_t>> ref;
  std::uint64_t ref_dups = 0;
  std::mt19937_64 rng(20240611);
  std::uint64_t next_id = 1;
  auto pick_id = [&]() -> std::uint64_t {
    const std::uint64_t roll = rng() % 100;
    if (roll == 0) return 0;
    if (roll == 1) return std::numeric_limits<std::uint64_t>::max();
    if (roll < 40) return next_id++;
    return next_id - 1 - rng() % std::min<std::uint64_t>(next_id, 64);
  };
  for (int step = 1; step <= 100000; ++step) {
    if (step % 30000 == 0) {  // three clears, each after ~7k records
      fc.clear();
      ref.clear();
      ref_dups = 0;
      continue;
    }
    const std::uint64_t id = pick_id();
    if (rng() % 3 == 0) {
      // Nodes past the end are foreign: never seen.
      const auto node = static_cast<NodeId>(rng() % (kNodes + 8));
      ASSERT_EQ(fc.has_seen(node, id), ref.count({node, id}) == 1)
          << "step " << step;
    } else {
      const auto node = static_cast<NodeId>(rng() % kNodes);
      const bool fresh = ref.insert({node, id}).second;
      if (!fresh) ++ref_dups;
      ASSERT_EQ(fc.mark_seen(node, id), fresh) << "step " << step;
    }
    ASSERT_EQ(fc.size(), ref.size()) << "step " << step;
    ASSERT_EQ(fc.duplicates(), ref_dups) << "step " << step;
    max_capacity = std::max(max_capacity, fc.capacity());
  }
  EXPECT_GE(max_capacity, 8 * initial_capacity);  // three or more doublings
}

TEST(FloodController, BitBoundariesExtremeIdsAndReuseAfterClear) {
  constexpr std::uint64_t kMaxId = std::numeric_limits<std::uint64_t>::max();
  for (const std::size_t n : {std::size_t{1}, std::size_t{64},
                              std::size_t{65}, std::size_t{200}}) {
    std::vector<NodeId> nodes;
    for (const NodeId node : {NodeId{0}, NodeId{63}, NodeId{64},
                              static_cast<NodeId>(n - 1)}) {
      if (node < n && std::find(nodes.begin(), nodes.end(), node) ==
                          nodes.end()) {
        nodes.push_back(node);
      }
    }
    routing::FloodController fc(n);
    for (int round = 0; round < 2; ++round) {  // before and after clear()
      for (const std::uint64_t id : {std::uint64_t{0}, kMaxId}) {
        for (const NodeId node : nodes) {
          EXPECT_FALSE(fc.has_seen(node, id)) << n << " " << node << " " << id;
          EXPECT_TRUE(fc.mark_seen(node, id)) << n << " " << node << " " << id;
          EXPECT_FALSE(fc.mark_seen(node, id)) << n << " " << node;
          EXPECT_TRUE(fc.has_seen(node, id)) << n << " " << node;
        }
      }
      // Only the marked bits are set, in both records.
      for (NodeId node = 0; node < n; ++node) {
        const bool marked =
            std::find(nodes.begin(), nodes.end(), node) != nodes.end();
        EXPECT_EQ(fc.has_seen(node, 0), marked) << n << " " << node;
        EXPECT_EQ(fc.has_seen(node, kMaxId), marked) << n << " " << node;
      }
      EXPECT_FALSE(fc.has_seen(static_cast<NodeId>(n), 0));  // foreign
      EXPECT_EQ(fc.size(), 2 * nodes.size());
      EXPECT_EQ(fc.duplicates(), 2 * nodes.size());
      fc.clear();
      EXPECT_EQ(fc.size(), 0u);
      for (const NodeId node : nodes) {
        EXPECT_FALSE(fc.has_seen(node, 0));
        EXPECT_FALSE(fc.has_seen(node, kMaxId));
      }
    }
  }
}

TEST(FloodController, OwnedSubsetMarksOnlyOwnedNodes) {
  // A world-sharded domain simulates only its owned nodes: every third
  // node of 200 here, bits assigned in list order.
  routing::FloodController fc(200);
  std::vector<NodeId> owned;
  for (NodeId node = 1; node < 200; node += 3) owned.push_back(node);
  fc.restrict_to(owned);
  for (std::uint64_t id = 1; id <= 300; ++id) {
    for (const NodeId node : owned) EXPECT_TRUE(fc.mark_seen(node, id));
  }
  EXPECT_EQ(fc.size(), 300 * owned.size());
  for (const NodeId node : owned) {
    EXPECT_TRUE(fc.has_seen(node, 300));
    EXPECT_FALSE(fc.mark_seen(node, 300));
  }
  // A foreign mark fails loudly, naming the node, and changes nothing.
  try {
    fc.mark_seen(3, 300);
    ADD_FAILURE() << "foreign mark accepted";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("node 3 "), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(fc.mark_seen(200, 1), std::out_of_range);  // past the end
  EXPECT_FALSE(fc.has_seen(3, 300));
  EXPECT_FALSE(fc.has_seen(0, 1));
  EXPECT_EQ(fc.size(), 300 * owned.size());
  EXPECT_EQ(fc.duplicates(), owned.size());

  EXPECT_THROW(fc.restrict_to({4, 4}), std::invalid_argument);
  EXPECT_THROW(fc.restrict_to({200}), std::out_of_range);
  EXPECT_TRUE(fc.has_seen(1, 300));  // a refused restriction keeps state
}

TEST(FloodController, FootprintIsOneRecordPerId) {
  // 1,000 floods over 40 nodes need 1,000 records, which fit 2,048 slots
  // under the 3/4 load cap; a slot per (node, id) pair would need 65,536.
  routing::FloodController fc(40);
  for (std::uint64_t id = 1; id <= 1000; ++id) {
    for (NodeId node = 0; node < 40; ++node) fc.mark_seen(node, id);
  }
  EXPECT_EQ(fc.size(), 40000u);
  EXPECT_LE(fc.capacity(), 2048u);
}

TEST(FloodController, TtlGate) {
  net::Packet p;
  p.ttl = 2;
  EXPECT_TRUE(routing::FloodController::ttl_allows_forward(p));
  p.ttl = 1;
  EXPECT_FALSE(routing::FloodController::ttl_allows_forward(p));
}

TEST(ExpandingRing, DefaultSchedule) {
  EXPECT_EQ(routing::expanding_ring_ttls({}),
            (std::vector<int>{1, 2, 4, 8, 16}));
}

TEST(ExpandingRing, MaxAlwaysIncluded) {
  routing::ExpandingRingConfig c;
  c.initial_ttl = 3;
  c.growth_factor = 2;
  c.max_ttl = 10;
  EXPECT_EQ(routing::expanding_ring_ttls(c), (std::vector<int>{3, 6, 10}));
}

TEST(ExpandingRing, SingleRingWhenInitialEqualsMax) {
  routing::ExpandingRingConfig c;
  c.initial_ttl = 8;
  c.max_ttl = 8;
  EXPECT_EQ(routing::expanding_ring_ttls(c), (std::vector<int>{8}));
}

TEST(ExpandingRing, RejectsBadConfig) {
  routing::ExpandingRingConfig c;
  c.initial_ttl = 0;
  EXPECT_THROW(routing::expanding_ring_ttls(c), std::invalid_argument);
  c = {};
  c.growth_factor = 1;
  EXPECT_THROW(routing::expanding_ring_ttls(c), std::invalid_argument);
  c = {};
  c.max_ttl = 0;
  EXPECT_THROW(routing::expanding_ring_ttls(c), std::invalid_argument);
}

}  // namespace
