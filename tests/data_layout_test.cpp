// Data-oriented layout checks (DESIGN.md §12):
//
//  * allocation counts — the CSR spatial-grid rebuild (the whole point
//    of flattening it) and the cache's victim selection, which runs on
//    every insert into a full dynamic space, must be heap-free in steady
//    state;
//  * AoS <-> SoA equivalence — neighbor queries against a brute-force
//    O(N^2) reference, and radio-fed GPSR against GPSR over beacon tables
//    that hold the same knowledge, on randomized topologies.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "cache/cache_store.hpp"
#include "cache/policies.hpp"
#include "mobility/random_waypoint.hpp"
#include "mobility/static_placement.hpp"
#include "net/spatial_grid.hpp"
#include "net/wireless_net.hpp"
#include "routing/gpsr.hpp"
#include "routing/neighbor_provider.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

// Counting replacements for the global allocator (same pattern as
// sim_test.cpp / net_alloc_test.cpp).
namespace alloc_probe {
std::atomic<std::uint64_t> count{0};
}  // namespace alloc_probe

void* operator new(std::size_t size) {
  alloc_probe::count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace precinct;

TEST(DataLayoutAlloc, SteadyStateGridRebuildAndQueryAreAllocationFree) {
  const geo::Rect area{{0.0, 0.0}, {1200.0, 1200.0}};
  constexpr std::size_t kNodes = 512;
  net::SpatialGrid grid(area, 250.0);

  support::Rng rng(7);
  std::vector<double> xs(kNodes), ys(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    xs[i] = rng.uniform(0.0, 1200.0);
    ys[i] = rng.uniform(0.0, 1200.0);
  }
  const auto drift = [&] {
    for (std::size_t i = 0; i < kNodes; ++i) {
      xs[i] = std::clamp(xs[i] + rng.uniform(-5.0, 5.0), 0.0, 1200.0);
      ys[i] = std::clamp(ys[i] + rng.uniform(-5.0, 5.0), 0.0, 1200.0);
    }
  };

  // Warm-up: first rebuild sizes offsets/indices and the counting-sort
  // scratch; first queries size the output vector.
  grid.rebuild(xs.data(), ys.data(), kNodes);
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < kNodes; i += 16) {
    out.clear();
    grid.query({xs[i], ys[i]}, 250.0, out);
  }

  const std::uint64_t before = alloc_probe::count.load();
  for (int round = 0; round < 8; ++round) {
    drift();
    grid.rebuild(xs.data(), ys.data(), kNodes);
    for (std::size_t i = 0; i < kNodes; i += 16) {
      out.clear();
      grid.query({xs[i], ys[i]}, 250.0, out);
    }
  }
  EXPECT_EQ(alloc_probe::count.load(), before);
  EXPECT_EQ(grid.indexed_count(), kNodes);
}

TEST(DataLayoutAlloc, CacheVictimSelectionIsAllocationFree) {
  cache::CacheStore store(64 * 1024, cache::make_policy("gd-ld"));
  support::Rng rng(11);
  for (geo::Key k = 0; k < 48; ++k) {
    cache::CacheEntry e;
    e.key = k;
    e.size_bytes = 1024;
    e.access_count = rng.uniform(0.0, 10.0);
    e.region_distance = rng.uniform(0.0, 2.0);
    store.insert(e);
  }
  // Selection scans the rows in place, so there is no scratch to warm
  // up: the very first call is counted too.
  const std::uint64_t before = alloc_probe::count.load();
  geo::Key sum = 0;
  for (int round = 0; round < 64; ++round) {
    store.touch(static_cast<geo::Key>(round % 48), round, 1.0);
    const auto victim = store.victim_key();
    ASSERT_TRUE(victim.has_value());
    sum += *victim;
  }
  EXPECT_EQ(alloc_probe::count.load(), before);
  EXPECT_LT(sum, static_cast<geo::Key>(48 * 64));  // victims are real keys
}

TEST(DataLayoutEquivalence, NeighborsMatchBruteForceOnRandomTopologies) {
  // One snapshot-grid path answers for every population.  It must agree
  // with the O(N^2) reference under mobility (queries land on a fresh
  // snapshot and up to 0.5 s after one) and under churn (a node revived
  // between two snapshots counts at once, a node killed there drops out).
  struct Input {
    std::size_t n;
    double side_m;
    double v_max;
    std::uint64_t seed;
  };
  const Input inputs[] = {
      {40, 1200.0, 6.0, 1},   {40, 1200.0, 6.0, 17},  {40, 1200.0, 6.0, 99},
      {300, 1200.0, 6.0, 1},  {300, 1200.0, 6.0, 17}, {300, 1200.0, 6.0, 99},
      {200, 2000.0, 20.0, 99},  // sparser and faster
  };
  for (const Input& in : inputs) {
    sim::Simulator sim;
    mobility::RandomWaypointConfig mc;
    mc.area = {{0.0, 0.0}, {in.side_m, in.side_m}};
    mc.v_max = in.v_max;
    mobility::RandomWaypoint mob(in.n, mc, in.seed);
    net::WirelessConfig wc;
    wc.area = mc.area;
    net::WirelessNet net(sim, mob, wc, energy::FeeneyModel{}, in.seed);
    const auto churned = static_cast<net::NodeId>(in.n / 3);
    net.kill(churned);

    const auto check = [&](double t) {
      for (net::NodeId self = 0; self < in.n; self += 7) {
        if (!net.is_alive(self)) continue;
        auto expected =
            test_util::brute_force_neighbors(mob, self, t, wc.range_m);
        std::erase_if(expected,
                      [&](net::NodeId i) { return !net.is_alive(i); });
        EXPECT_EQ(net.neighbors(self), expected)
            << "n=" << in.n << " seed=" << in.seed << " t=" << t
            << " self=" << self;
        EXPECT_EQ(net.position(self), mob.position_at(self, t));
      }
    };
    for (double t = 0.0; t < 30.0; t += 0.37) {
      sim.schedule_at(t, [&, t] { check(t); });
    }
    // 31.0 is over 0.5 s after the last query, so it takes a snapshot;
    // the churn at 31.1 and the query at 31.2 both precede the next one.
    std::uint64_t epoch_after_snapshot = 0;
    sim.schedule_at(31.0, [&] {
      check(31.0);
      epoch_after_snapshot = net.topology_epoch();
    });
    sim.schedule_at(31.1, [&] {
      net.revive(churned);
      net.kill(churned + 1);
    });
    sim.schedule_at(31.2, [&] {
      check(31.2);
      EXPECT_EQ(net.topology_epoch(), epoch_after_snapshot + 2)
          << "only the revive and the kill, no snapshot";
    });
    sim.run_all();
  }
}

TEST(DataLayoutEquivalence, GpsrNextHopMatchesVirtualProviderPath) {
  // GPSR reads the radio's cached neighbor lists and SoA positions
  // directly, or a beacon table.  Feed the table every in-range
  // neighbor's exact position at the query time and both knowledge
  // sources must take every greedy and perimeter decision alike.
  sim::Simulator sim;
  auto placement = mobility::StaticPlacement::uniform(
      160, {{0.0, 0.0}, {1200.0, 1200.0}}, /*seed=*/5);
  net::WirelessConfig wc;
  net::WirelessNet net(sim, placement, wc, energy::FeeneyModel{}, 5);

  routing::BeaconNeighborProvider beacons(net, 160, /*lifetime_s=*/10.0);
  for (net::NodeId self = 0; self < 160; ++self) {
    for (const net::NodeId n : net.neighbors(self)) {
      beacons.on_beacon(self, n, net.position(n), sim.now());
    }
  }
  routing::Gpsr radio_fed(net);
  routing::Gpsr beacon_fed(net, &beacons);

  support::Rng rng(5);
  int perimeter_decisions = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto self = static_cast<net::NodeId>(rng.uniform_int(160));
    net::Packet a;
    a.dest_location = {rng.uniform(0.0, 1200.0), rng.uniform(0.0, 1200.0)};
    if (trial % 2 == 1) {
      // A destination right beside `self` is usually a local minimum, so
      // the Gabriel planarization and right-hand rule decide the hop.
      const geo::Point here = net.position(self);
      a.dest_location = {here.x + rng.uniform(-40.0, 40.0),
                         here.y + rng.uniform(-40.0, 40.0)};
    }
    net::Packet b = a;
    const auto hop_radio = radio_fed.next_hop(self, a);
    const auto hop_beacon = beacon_fed.next_hop(self, b);
    EXPECT_EQ(hop_radio, hop_beacon) << "trial=" << trial << " self=" << self;
    EXPECT_EQ(a.perimeter, b.perimeter);
    perimeter_decisions += a.perimeter ? 1 : 0;
  }
  EXPECT_GT(perimeter_decisions, 0) << "the perimeter path went untested";
}

}  // namespace
