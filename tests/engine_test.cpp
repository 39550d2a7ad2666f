// Protocol-level tests for PrecinctEngine: search phases, cache admission
// control, replica fallback, consistency schemes, custody management.
//
// The harness builds a deterministic 3x3 topology — one peer at each
// region center — so every protocol path can be exercised precisely.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "test_util.hpp"
#include "core/config_io.hpp"
#include "core/scenario.hpp"
#include "mobility/gauss_markov.hpp"
#include "mobility/static_placement.hpp"
#include "net/wireless_net.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace precinct;
using core::HitClass;
using core::PrecinctConfig;
using core::PrecinctEngine;
using net::NodeId;

TEST(Engine, InitialCustodyPlacedInHomeAndReplicaRegions) {
  test_util::GridHarness h;
  for (std::size_t i = 0; i < h.catalog.size(); ++i) {
    const geo::Key key = h.catalog.key_of(i);
    EXPECT_EQ(h.engine().custody_count(key), 2u) << "key rank " << i;
    EXPECT_NE(h.custodian_of(key), net::kNoNode);
  }
}

TEST(Engine, EveryPeerKnowsItsRegion) {
  test_util::GridHarness h;
  for (NodeId i = 0; i < 9; ++i) {
    EXPECT_EQ(h.engine().region_of(i), static_cast<geo::RegionId>(i));
  }
}

TEST(Engine, OwnCustodyServedLocally) {
  test_util::GridHarness h;
  const auto key = h.key_with_home(4);
  ASSERT_TRUE(key.has_value());
  const std::uint64_t sends_before = h.net.stats().total_sends();
  h.engine().issue_request(4, *key);
  h.settle();
  const auto& m = h.engine().metrics();
  EXPECT_EQ(m.requests_completed, 1u);
  EXPECT_EQ(m.own_cache_hits, 1u);
  EXPECT_EQ(h.net.stats().total_sends(), sends_before);  // zero radio traffic
  EXPECT_LT(m.latency_s.max(), 0.01);
}

TEST(Engine, RemoteFetchServedByHomeRegion) {
  test_util::GridHarness h;
  const auto key = h.key_with_home(8);  // far corner from node 0
  ASSERT_TRUE(key.has_value());
  ASSERT_NE(h.engine().region_of(0), 8u);
  h.engine().issue_request(0, *key);
  h.settle();
  const auto& m = h.engine().metrics();
  EXPECT_EQ(m.requests_completed, 1u);
  EXPECT_EQ(m.home_region_hits + m.replica_hits + m.en_route_hits, 1u);
  EXPECT_EQ(m.requests_failed, 0u);
}

TEST(Engine, FetchedRemoteItemIsCachedThenServedLocally) {
  test_util::GridHarness h;
  // Pick a key whose home AND replica are both far from node 0's region 0
  // so the response cannot come from node 0's own region.
  std::optional<geo::Key> key;
  for (std::size_t i = 0; i < h.catalog.size(); ++i) {
    const geo::Key k = h.catalog.key_of(i);
    const auto home = h.engine().geo_hash().home_region(k, h.engine().region_table());
    const auto repl =
        h.engine().geo_hash().replica_region(k, h.engine().region_table());
    if (home != 0 && repl != 0) {
      key = k;
      break;
    }
  }
  ASSERT_TRUE(key.has_value());
  h.engine().issue_request(0, *key);
  h.settle();
  EXPECT_NE(h.engine().cache_of(0).find(*key), nullptr)
      << "remote item must be admitted to the dynamic cache";
  // Second request: served from own cache.
  h.engine().issue_request(0, *key);
  h.settle();
  EXPECT_EQ(h.engine().metrics().own_cache_hits, 1u);
}

TEST(Engine, AdmissionControlRejectsSameRegionOrigin) {
  // Two peers per region: the requester shares its region with the home
  // custodian, so the regional flood serves the request and §3.2 forbids
  // caching it ("it can be obtained locally for subsequent requests").
  auto cfg = test_util::grid_config();
  cfg.n_nodes = 18;
  workload::DataCatalog catalog(cfg.catalog, 7);
  std::vector<geo::Point> pts;
  for (int iy = 0; iy < 3; ++iy) {
    for (int ix = 0; ix < 3; ++ix) {
      pts.push_back({100.0 + 200.0 * ix, 100.0 + 200.0 * iy});
      pts.push_back({140.0 + 200.0 * ix, 100.0 + 200.0 * iy});
    }
  }
  sim::Simulator sim;
  mobility::StaticPlacement placement(pts);
  net::WirelessNet net(sim, placement, cfg.wireless, cfg.energy_model, 1);
  PrecinctEngine engine(cfg, sim, net,
                        geo::RegionTable::grid(cfg.area, 3, 3), catalog);
  engine.initialize();
  engine.start_measurement();

  // Find a key and a requester sharing the home region with a *different*
  // custodian peer.
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const geo::Key key = catalog.key_of(i);
    const geo::RegionId home =
        engine.geo_hash().home_region(key, engine.region_table());
    NodeId custodian = net::kNoNode;
    NodeId other = net::kNoNode;
    for (NodeId n = 0; n < 18; ++n) {
      if (engine.region_of(n) != home) continue;
      if (engine.cache_of(n).find_static(key) != nullptr) {
        custodian = n;
      } else {
        other = n;
      }
    }
    if (custodian == net::kNoNode || other == net::kNoNode) continue;
    engine.issue_request(other, key);
    sim.run_until(sim.now() + 6.0);
    EXPECT_GE(engine.metrics().regional_hits, 1u)
        << "request must be served within the region";
    EXPECT_EQ(engine.cache_of(other).find(key), nullptr)
        << "same-region origin must not be cached (admission control)";
    return;
  }
  FAIL() << "no suitable key/requester pair found";
}

TEST(Engine, ReplicaServesAfterHomeCustodianDies) {
  test_util::GridHarness h;
  const auto key = h.key_with_home(8);
  ASSERT_TRUE(key.has_value());
  const NodeId home_custodian = h.custodian_of(*key);
  ASSERT_NE(home_custodian, net::kNoNode);
  h.engine().fail_peer(home_custodian, /*graceful=*/false);
  EXPECT_EQ(h.engine().custody_count(*key), 1u);  // replica remains
  // Request from a far peer; home region lookup times out, replica serves.
  const NodeId requester = home_custodian == 0 ? 1 : 0;
  h.engine().issue_request(requester, *key);
  h.settle(10.0);
  const auto& m = h.engine().metrics();
  EXPECT_EQ(m.requests_completed, 1u);
  EXPECT_GE(m.replica_hits + m.en_route_hits, 1u);
}

TEST(Engine, GracefulDepartureHandsCustodyOff) {
  // Use a denser layout: two peers per region center area so a handoff
  // target exists.
  auto cfg = test_util::grid_config();
  cfg.n_nodes = 18;
  workload::DataCatalog catalog(cfg.catalog, 7);
  std::vector<geo::Point> pts;
  for (int iy = 0; iy < 3; ++iy) {
    for (int ix = 0; ix < 3; ++ix) {
      pts.push_back({100.0 + 200.0 * ix, 100.0 + 200.0 * iy});
      pts.push_back({130.0 + 200.0 * ix, 100.0 + 200.0 * iy});
    }
  }
  sim::Simulator sim;
  mobility::StaticPlacement placement(pts);
  net::WirelessNet net(sim, placement, cfg.wireless, cfg.energy_model, 1);
  PrecinctEngine engine(cfg, sim, net,
                        geo::RegionTable::grid(cfg.area, 3, 3), catalog);
  engine.initialize();
  engine.start_measurement();

  // Find a custodian and retire it gracefully.
  NodeId custodian = net::kNoNode;
  geo::Key key = 0;
  for (std::size_t i = 0; i < catalog.size() && custodian == net::kNoNode;
       ++i) {
    key = catalog.key_of(i);
    for (NodeId n = 0; n < 18; ++n) {
      if (engine.cache_of(n).find_static(key) != nullptr) {
        custodian = n;
        break;
      }
    }
  }
  ASSERT_NE(custodian, net::kNoNode);
  const std::size_t before = engine.custody_count(key);
  engine.fail_peer(custodian, /*graceful=*/true);
  sim.run_until(sim.now() + 5.0);
  EXPECT_EQ(engine.custody_count(key), before)
      << "custody must survive a graceful departure";
}

TEST(Engine, MultipleReplicasPlacedAndUpdated) {
  auto cfg = test_util::grid_config();
  cfg.replica_count = 2;
  cfg.consistency = consistency::Mode::kPushAdaptivePull;
  test_util::GridHarness h(cfg);
  const geo::Key key = h.catalog.key_of(0);
  EXPECT_EQ(h.engine().custody_count(key), 3u);  // home + 2 replicas
  // An update must reach all three custodians.
  h.engine().issue_update(4, key);
  h.settle(8.0);
  std::size_t fresh = 0;
  for (net::NodeId i = 0; i < 9; ++i) {
    if (const auto* e = h.engine().cache_of(i).find_static(key)) {
      if (e->version == 1u) ++fresh;
    }
  }
  EXPECT_EQ(fresh, 3u);
}

TEST(Engine, ZeroReplicasStillServesFromHome) {
  auto cfg = test_util::grid_config();
  cfg.replica_count = 0;
  test_util::GridHarness h(cfg);
  const auto key = h.key_with_home(8);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(h.engine().custody_count(*key), 1u);
  h.engine().issue_request(0, *key);
  h.settle();
  EXPECT_EQ(h.engine().metrics().requests_completed, 1u);
}

TEST(Engine, PlainPushInvalidatesCaches) {
  auto cfg = test_util::grid_config();
  cfg.consistency = consistency::Mode::kPlainPush;
  test_util::GridHarness h(cfg);
  // Warm node 0's cache with a remote item.
  std::optional<geo::Key> key;
  for (std::size_t i = 0; i < h.catalog.size(); ++i) {
    const geo::Key k = h.catalog.key_of(i);
    const auto home = h.engine().geo_hash().home_region(k, h.engine().region_table());
    const auto repl =
        h.engine().geo_hash().replica_region(k, h.engine().region_table());
    if (home != 0 && repl != 0) {
      key = k;
      break;
    }
  }
  ASSERT_TRUE(key.has_value());
  h.engine().issue_request(0, *key);
  h.settle();
  ASSERT_NE(h.engine().cache_of(0).find(*key), nullptr);

  // Update from some other peer floods an invalidation.
  h.engine().issue_update(4, *key);
  h.settle();
  const cache::CacheEntry* cached = h.engine().cache_of(0).find(*key);
  ASSERT_NE(cached, nullptr);
  EXPECT_TRUE(cached->invalidated);
  // Custodian applied the pushed version.
  const NodeId custodian = h.custodian_of(*key);
  ASSERT_NE(custodian, net::kNoNode);
  EXPECT_EQ(h.engine().cache_of(custodian).find_static(*key)->version, 1u);
}

TEST(Engine, PushReachesHomeAndReplicaCustodians) {
  auto cfg = test_util::grid_config();
  cfg.consistency = consistency::Mode::kPushAdaptivePull;
  test_util::GridHarness h(cfg);
  const auto key = h.key_with_home(2);
  ASSERT_TRUE(key.has_value());
  h.engine().issue_update(6, *key);  // far corner updater
  h.settle(8.0);
  std::size_t fresh = 0;
  for (NodeId i = 0; i < 9; ++i) {
    if (const auto* e = h.engine().cache_of(i).find_static(*key)) {
      if (e->version == 1u) ++fresh;
    }
  }
  EXPECT_EQ(fresh, 2u) << "home and replica custodians must both apply";
}

TEST(Engine, PullEveryTimeRefetchesAfterUpdate) {
  auto cfg = test_util::grid_config();
  cfg.consistency = consistency::Mode::kPullEveryTime;
  cfg.updates_enabled = true;
  cfg.mean_update_interval_s = 1e12;  // manual updates only
  test_util::GridHarness h(cfg);
  std::optional<geo::Key> key;
  for (std::size_t i = 0; i < h.catalog.size(); ++i) {
    const geo::Key k = h.catalog.key_of(i);
    const auto home = h.engine().geo_hash().home_region(k, h.engine().region_table());
    const auto repl =
        h.engine().geo_hash().replica_region(k, h.engine().region_table());
    if (home != 0 && repl != 0) {
      key = k;
      break;
    }
  }
  ASSERT_TRUE(key.has_value());
  h.engine().issue_request(0, *key);
  h.settle();
  ASSERT_NE(h.engine().cache_of(0).find(*key), nullptr);

  h.engine().issue_update(4, *key);
  h.settle(8.0);
  // Request again: the poll discovers the new version; no false hit.
  h.engine().issue_request(0, *key);
  h.settle(8.0);
  const auto& m = h.engine().metrics();
  EXPECT_EQ(m.false_hits, 0u);
  EXPECT_GE(m.polls_sent, 1u);
  const cache::CacheEntry* cached = h.engine().cache_of(0).find(*key);
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(cached->version, 1u) << "poll reply must refresh the copy";
}

TEST(Engine, AdaptivePullSkipsPollWithinTtr) {
  auto cfg = test_util::grid_config();
  cfg.consistency = consistency::Mode::kPushAdaptivePull;
  cfg.ttr_initial_s = 1e6;  // effectively never expires
  test_util::GridHarness h(cfg);
  std::optional<geo::Key> key;
  for (std::size_t i = 0; i < h.catalog.size(); ++i) {
    const geo::Key k = h.catalog.key_of(i);
    const auto home = h.engine().geo_hash().home_region(k, h.engine().region_table());
    const auto repl =
        h.engine().geo_hash().replica_region(k, h.engine().region_table());
    if (home != 0 && repl != 0) {
      key = k;
      break;
    }
  }
  ASSERT_TRUE(key.has_value());
  h.engine().issue_request(0, *key);
  h.settle();
  const auto polls_before = h.engine().metrics().polls_sent;
  h.engine().issue_request(0, *key);  // own-cache hit within TTR
  h.settle();
  EXPECT_EQ(h.engine().metrics().polls_sent, polls_before);
  EXPECT_EQ(h.engine().metrics().own_cache_hits, 1u);
}

TEST(Engine, MeasurementWindowExcludesWarmupRequests) {
  auto cfg = test_util::grid_config();
  workload::DataCatalog catalog(cfg.catalog, 7);
  sim::Simulator sim;
  mobility::StaticPlacement placement(test_util::grid_positions());
  net::WirelessNet net(sim, placement, cfg.wireless, cfg.energy_model, 1);
  PrecinctEngine engine(cfg, sim, net,
                        geo::RegionTable::grid(cfg.area, 3, 3), catalog);
  engine.initialize();
  // No start_measurement yet: this request must not be counted.
  engine.issue_request(0, catalog.key_of(0));
  sim.run_until(10.0);
  engine.start_measurement();
  engine.issue_request(0, catalog.key_of(1));
  sim.run_until(20.0);
  const auto m = engine.finalize();
  EXPECT_EQ(m.requests_issued, 1u);
  EXPECT_LE(m.requests_completed, 1u);
}

TEST(Engine, FailedRequestsCounted) {
  test_util::GridHarness h;
  // Kill both custodians of a key and everything it could be cached at,
  // then request it: the search must fail, not hang.
  const auto key = h.key_with_home(8);
  ASSERT_TRUE(key.has_value());
  for (NodeId i = 0; i < 9; ++i) {
    if (h.engine().cache_of(i).find_static(*key) != nullptr) {
      h.engine().fail_peer(i, /*graceful=*/false);
    }
  }
  EXPECT_EQ(h.engine().custody_count(*key), 0u);
  h.engine().issue_request(0, *key);
  h.settle(15.0);
  const auto& m = h.engine().metrics();
  EXPECT_EQ(m.requests_failed, 1u);
  EXPECT_EQ(m.requests_completed, 0u);
  EXPECT_EQ(h.engine().pending_requests(), 0u);
}

TEST(Engine, EnergyIsChargedForRemoteTraffic) {
  test_util::GridHarness h;
  const auto key = h.key_with_home(8);
  ASSERT_TRUE(key.has_value());
  h.engine().issue_request(0, *key);
  h.settle();
  EXPECT_GT(h.net.energy().network_total().total_mj(), 0.0);
}

TEST(Engine, MergeRegionsRelocatesCustodyAndFloodsTable) {
  test_util::GridHarness h;
  const auto table_version = h.engine().region_table().version();
  const auto sends_before =
      h.net.stats().sends(net::PacketKind::kRegionUpdate);
  // Merge regions 0 and 1 (adjacent cells).
  const auto merged = h.engine().merge_regions(0, 1, /*initiator=*/4);
  ASSERT_TRUE(merged.has_value());
  h.settle(8.0);
  EXPECT_EQ(h.engine().region_table().size(), 8u);
  EXPECT_GT(h.engine().region_table().version(), table_version);
  // The change was flooded.
  EXPECT_GT(h.net.stats().sends(net::PacketKind::kRegionUpdate),
            sends_before);
  // Peers re-derived their regions: nodes 0 and 1 now share one region.
  EXPECT_EQ(h.engine().region_of(0), h.engine().region_of(1));
  // Every key is still held by at least one custodian in its (new) home
  // or replica regions; none lost more than transiently.
  std::size_t orphaned = 0;
  for (std::size_t i = 0; i < h.catalog.size(); ++i) {
    if (h.engine().custody_count(h.catalog.key_of(i)) == 0) ++orphaned;
  }
  EXPECT_EQ(orphaned, 0u);
  // Requests still succeed after the reconfiguration.
  h.engine().issue_request(8, h.catalog.key_of(0));
  h.settle(8.0);
  EXPECT_GE(h.engine().metrics().requests_completed, 1u);
}

TEST(Engine, SeparateRegionSplitsAndKeepsServing) {
  test_util::GridHarness h;
  const auto halves = h.engine().separate_region(4, /*initiator=*/4);
  ASSERT_TRUE(halves.has_value());
  h.settle(8.0);
  EXPECT_EQ(h.engine().region_table().size(), 10u);
  std::size_t orphaned = 0;
  for (std::size_t i = 0; i < h.catalog.size(); ++i) {
    if (h.engine().custody_count(h.catalog.key_of(i)) == 0) ++orphaned;
  }
  EXPECT_EQ(orphaned, 0u);
  h.engine().issue_request(0, h.catalog.key_of(1));
  h.settle(8.0);
  EXPECT_GE(h.engine().metrics().requests_completed, 1u);
}

TEST(Engine, MergeUnknownRegionsRejected) {
  test_util::GridHarness h;
  EXPECT_FALSE(h.engine().merge_regions(0, 0, 0).has_value());
  EXPECT_FALSE(h.engine().merge_regions(0, 99, 0).has_value());
  EXPECT_EQ(h.engine().region_table().size(), 9u);
}

TEST(Engine, RegionPopulationCountsLivePeers) {
  test_util::GridHarness h;
  EXPECT_EQ(h.engine().region_population(3), 1u);
  h.engine().fail_peer(3, /*graceful=*/false);
  EXPECT_EQ(h.engine().region_population(3), 0u);
}

TEST(Engine, BeaconModeDiscoversNeighborsAndServes) {
  auto cfg = test_util::grid_config();
  cfg.use_beacons = true;
  cfg.beacon_interval_s = 0.5;
  cfg.neighbor_lifetime_s = 1.5;
  test_util::GridHarness h(cfg);
  // Give the fleet a few beacon rounds, then fetch something remote.
  h.settle(3.0);
  EXPECT_GT(h.net.stats().sends(net::PacketKind::kBeacon), 9u * 2u);
  const auto key = h.key_with_home(8);
  ASSERT_TRUE(key.has_value());
  h.engine().issue_request(0, *key);
  h.settle(8.0);
  EXPECT_EQ(h.engine().metrics().requests_completed, 1u)
      << "GPSR over beacon tables must still deliver";
}

TEST(Engine, RevivedPeerStartsCold) {
  test_util::GridHarness h;
  // Warm node 0's cache, then crash + revive it.
  std::optional<geo::Key> key;
  for (std::size_t i = 0; i < h.catalog.size(); ++i) {
    const geo::Key k = h.catalog.key_of(i);
    const auto home = h.engine().geo_hash().home_region(k, h.engine().region_table());
    const auto repl =
        h.engine().geo_hash().replica_region(k, h.engine().region_table());
    if (home != 0 && repl != 0) {
      key = k;
      break;
    }
  }
  ASSERT_TRUE(key.has_value());
  h.engine().issue_request(0, *key);
  h.settle();
  ASSERT_NE(h.engine().cache_of(0).find(*key), nullptr);

  h.engine().fail_peer(0, /*graceful=*/false);
  h.settle(1.0);
  h.engine().revive_peer(0);
  EXPECT_TRUE(h.net.is_alive(0));
  EXPECT_EQ(h.engine().cache_of(0).entry_count(), 0u);
  EXPECT_EQ(h.engine().cache_of(0).static_count(), 0u);
  // The revived peer can still fetch.
  h.engine().issue_request(0, *key);
  h.settle(8.0);
  EXPECT_GE(h.engine().metrics().requests_completed, 2u);
}

TEST(Engine, ReviveIsIdempotentOnLivePeer) {
  test_util::GridHarness h;
  h.engine().revive_peer(3);  // already alive: no-op
  EXPECT_TRUE(h.net.is_alive(3));
}

TEST(Engine, PrefetchWarmsCacheWithoutCountingRequests) {
  auto cfg = test_util::grid_config();
  cfg.prefetch_count = 3;
  test_util::GridHarness h(cfg);
  // A single remote fetch should trigger background prefetches.
  const auto key = h.key_with_home(8);
  ASSERT_TRUE(key.has_value());
  h.engine().issue_request(0, *key);
  h.settle(10.0);
  const auto& m = h.engine().metrics();
  EXPECT_EQ(m.requests_issued, 1u) << "prefetches must not count";
  EXPECT_LE(m.requests_completed, 1u);
  // The peer now holds extra hot items beyond the one it asked for.
  std::size_t held = h.engine().cache_of(0).entry_count();
  EXPECT_GE(held, 2u) << "prefetched items should be cached";
}

TEST(Engine, LatencyBreakdownByHitClass) {
  test_util::GridHarness h;
  const auto own_key = h.key_with_home(4);
  const auto remote_key = h.key_with_home(8);
  ASSERT_TRUE(own_key.has_value() && remote_key.has_value());
  h.engine().issue_request(4, *own_key);   // own custody: ~0 latency
  h.engine().issue_request(0, *remote_key);  // remote: radio latency
  h.settle(10.0);
  const auto& m = h.engine().metrics();
  const auto& own =
      m.latency_by_class[static_cast<std::size_t>(core::HitClass::kOwnCache)];
  ASSERT_EQ(own.count(), 1u);
  EXPECT_LT(own.mean(), 0.01);
  std::size_t remote_count = 0;
  for (const auto cls : {core::HitClass::kEnRoute, core::HitClass::kHomeRegion,
                         core::HitClass::kReplicaRegion}) {
    remote_count += m.latency_by_class[static_cast<std::size_t>(cls)].count();
  }
  EXPECT_EQ(remote_count, 1u);
}

TEST(Engine, EnergyBreakdownSumsToTotal) {
  test_util::GridHarness h;
  const auto key = h.key_with_home(8);
  ASSERT_TRUE(key.has_value());
  h.engine().issue_request(0, *key);
  h.settle(10.0);
  h.sim.run_until(h.sim.now() + 1.0);
  const auto m = h.engine().finalize();
  EXPECT_GT(m.energy_total_mj, 0.0);
  EXPECT_NEAR(m.energy_broadcast_mj + m.energy_p2p_mj, m.energy_total_mj,
              1e-9);
}

TEST(Engine, FloodingBaselineServesRequests) {
  auto cfg = test_util::grid_config();
  cfg.retrieval = core::RetrievalKind::kFlooding;
  test_util::GridHarness h(cfg);
  const auto key = h.key_with_home(8);
  ASSERT_TRUE(key.has_value());
  h.engine().issue_request(0, *key);
  h.settle(8.0);
  EXPECT_EQ(h.engine().metrics().requests_completed, 1u);
  // The flood touched (nearly) the whole network.
  EXPECT_GT(h.net.stats().sends(net::PacketKind::kRequest), 5u);
}

TEST(Engine, ExpandingRingGrowsUntilFound) {
  auto cfg = test_util::grid_config();
  cfg.retrieval = core::RetrievalKind::kExpandingRing;
  cfg.ring.retry_wait_s = 0.3;
  test_util::GridHarness h(cfg);
  // Far corner key: ring TTL 1 cannot reach it from node 0; the search
  // must widen and eventually succeed.
  const auto key = h.key_with_home(8);
  ASSERT_TRUE(key.has_value());
  if (h.custodian_of(*key) == 0) GTEST_SKIP();
  h.engine().issue_request(0, *key);
  h.settle(12.0);
  const auto& m = h.engine().metrics();
  EXPECT_EQ(m.requests_completed, 1u);
  // At least two rings fired (the first TTL-1 probe plus a wider one).
  EXPECT_GE(h.net.stats().sends(net::PacketKind::kRequest), 2u);
  EXPECT_GT(m.latency_s.mean(), cfg.ring.retry_wait_s * 0.9);
}

TEST(Engine, TraceCoversConsistencyAndCustody) {
  PrecinctConfig cfg;
  cfg.n_nodes = 40;
  cfg.warmup_s = 20;
  cfg.measure_s = 200;
  cfg.updates_enabled = true;
  cfg.consistency = consistency::Mode::kPushAdaptivePull;
  cfg.seed = 5;
  core::Scenario s(cfg);
  auto& tracer = s.enable_tracing(8192);
  s.run();
  bool saw_consistency = false;
  bool saw_custody = false;
  for (const auto& e : tracer.events()) {
    saw_consistency |= e.category == sim::TraceCategory::kConsistency;
    saw_custody |= e.category == sim::TraceCategory::kCustody;
  }
  EXPECT_TRUE(saw_consistency);
  EXPECT_TRUE(saw_custody);
}

TEST(Engine, HotspotRotationShiftsRequestedKeys) {
  // With rotation on, the set of requested keys late in the run should
  // include items far outside the initial hot set.
  PrecinctConfig cfg;
  cfg.n_nodes = 60;
  cfg.warmup_s = 10;
  cfg.measure_s = 400;
  cfg.mean_request_interval_s = 5.0;
  cfg.hotspot_rotation_interval_s = 50.0;
  cfg.hotspot_shift = 300;
  cfg.zipf_theta = 1.2;  // concentrated: rotation is visible
  cfg.seed = 9;
  // Compare byte-hit with a stationary run: rotation must not break the
  // system, and both runs complete requests normally.
  PrecinctConfig stationary = cfg;
  stationary.hotspot_rotation_interval_s = 0.0;
  const auto rotated = core::run_scenario(cfg);
  const auto fixed = core::run_scenario(stationary);
  EXPECT_GT(rotated.success_ratio(), 0.9);
  EXPECT_GT(fixed.success_ratio(), 0.9);
  // Stationary popularity is easier to cache.
  EXPECT_GE(fixed.byte_hit_ratio(), rotated.byte_hit_ratio() * 0.9);
}

TEST(Engine, PiggybackSuppressesBeaconsWithoutBreakingDelivery) {
  auto cfg = test_util::grid_config();
  cfg.use_beacons = true;
  cfg.beacon_interval_s = 0.5;
  cfg.neighbor_lifetime_s = 1.5;
  cfg.beacon_piggyback = false;
  test_util::GridHarness plain(cfg);
  plain.settle(5.0);
  const auto plain_beacons = plain.net.stats().sends(net::PacketKind::kBeacon);

  cfg.beacon_piggyback = true;
  test_util::GridHarness piggy(cfg);
  piggy.settle(5.0);
  // Generate some traffic so piggybacking has frames to ride on, then
  // watch beacons over the same horizon.
  const auto key = piggy.key_with_home(8);
  ASSERT_TRUE(key.has_value());
  piggy.engine().issue_request(0, *key);
  piggy.settle(8.0);
  EXPECT_EQ(piggy.engine().metrics().requests_completed, 1u);
  // With traffic substituting for announcements, piggyback never sends
  // MORE beacons than plain mode did over a longer horizon.
  EXPECT_LE(piggy.net.stats().sends(net::PacketKind::kBeacon),
            plain_beacons * 3);
}

TEST(Config, ValidationCatchesBadValues) {
  const auto expect_bad = [](auto&& tweak, const char* what) {
    PrecinctConfig c;
    tweak(c);
    EXPECT_THROW(c.validate(), std::invalid_argument) << what;
  };
  PrecinctConfig good;
  EXPECT_NO_THROW(good.validate());
  expect_bad([](PrecinctConfig& c) { c.n_nodes = 0; }, "n_nodes");
  expect_bad([](PrecinctConfig& c) { c.regions_x = 0; }, "regions");
  expect_bad([](PrecinctConfig& c) { c.wireless.range_m = 0; }, "range");
  expect_bad([](PrecinctConfig& c) { c.v_max = 0.1; }, "speeds");
  expect_bad([](PrecinctConfig& c) { c.catalog.n_items = 0; }, "catalog");
  expect_bad([](PrecinctConfig& c) { c.cache_fraction = 1.5; }, "cache");
  expect_bad([](PrecinctConfig& c) { c.ttr_alpha = -0.1; }, "alpha");
  expect_bad([](PrecinctConfig& c) { c.mean_request_interval_s = 0; },
             "request interval");
  expect_bad([](PrecinctConfig& c) { c.replica_count = 100; }, "replicas");
  expect_bad([](PrecinctConfig& c) { c.measure_s = 0; }, "window");
  expect_bad([](PrecinctConfig& c) { c.graceful_fraction = 2.0; },
             "graceful");
  expect_bad(
      [](PrecinctConfig& c) {
        c.dynamic_regions = true;
        c.max_region_peers = c.min_region_peers;
      },
      "region bounds");
}

TEST(Config, LoadsFromKvFile) {
  const auto kv = support::KvFile::parse(
      "nodes = 42\n"
      "policy = lru\n"
      "consistency = push-adaptive-pull\n"
      "replicas = 2\n"
      "mobility = gauss-markov\n"
      "use_beacons = true\n"
      "cache = 0.05\n");
  const PrecinctConfig c = core::config_from_kv(kv);
  EXPECT_EQ(c.n_nodes, 42u);
  EXPECT_EQ(c.cache_policy, "lru");
  EXPECT_EQ(c.consistency, consistency::Mode::kPushAdaptivePull);
  EXPECT_TRUE(c.updates_enabled);  // implied by the consistency mode
  EXPECT_EQ(c.replica_count, 2u);
  EXPECT_EQ(c.mobility_model, "gauss-markov");
  EXPECT_TRUE(c.use_beacons);
  EXPECT_DOUBLE_EQ(c.cache_fraction, 0.05);
  EXPECT_NO_THROW(c.validate());
}

TEST(Config, KvRejectsUnknownKeys) {
  const auto kv = support::KvFile::parse("nodez = 42\n");
  EXPECT_THROW((void)core::config_from_kv(kv), std::invalid_argument);
}

TEST(Config, KvOverlaysOnBase) {
  PrecinctConfig base;
  base.n_nodes = 7;
  base.cache_policy = "lfu";
  const auto kv = support::KvFile::parse("nodes = 99\n");
  const PrecinctConfig c = core::config_from_kv(kv, base);
  EXPECT_EQ(c.n_nodes, 99u);
  EXPECT_EQ(c.cache_policy, "lfu");  // untouched
}

TEST(Config, ScenarioRejectsInvalidConfig) {
  PrecinctConfig c;
  c.n_nodes = 0;
  EXPECT_THROW(core::Scenario{c}, std::invalid_argument);
  PrecinctConfig m;
  m.mobility_model = "teleport";
  EXPECT_THROW(core::Scenario{m}, std::invalid_argument);
}

TEST(Scenario, RunsEndToEndAndIsDeterministic) {
  PrecinctConfig cfg;
  cfg.n_nodes = 30;
  cfg.warmup_s = 50;
  cfg.measure_s = 150;
  cfg.seed = 11;
  const auto a = core::run_scenario(cfg);
  const auto b = core::run_scenario(cfg);
  EXPECT_EQ(a.requests_issued, b.requests_issued);
  EXPECT_EQ(a.requests_completed, b.requests_completed);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_DOUBLE_EQ(a.energy_total_mj, b.energy_total_mj);
  EXPECT_DOUBLE_EQ(a.avg_latency_s(), b.avg_latency_s());
  EXPECT_GT(a.requests_issued, 50u);
}

TEST(Scenario, TracingRecordsProtocolEvents) {
  PrecinctConfig cfg;
  cfg.n_nodes = 20;
  cfg.warmup_s = 10;
  cfg.measure_s = 60;
  core::Scenario s(cfg);
  auto& tracer = s.enable_tracing(512);
  s.run();
  EXPECT_GT(tracer.total_emitted(), 10u);
  EXPECT_LE(tracer.size(), 512u);
  bool saw_request = false;
  for (const auto& e : tracer.events()) {
    if (e.category == sim::TraceCategory::kProtocol &&
        e.message.find("request #") != std::string::npos) {
      saw_request = true;
      break;
    }
  }
  EXPECT_TRUE(saw_request);
}

TEST(Scenario, TimelineSamplesDuringMeasurement) {
  PrecinctConfig cfg;
  cfg.n_nodes = 20;
  cfg.warmup_s = 10;
  cfg.measure_s = 100;
  cfg.sample_interval_s = 10.0;
  const auto m = core::run_scenario(cfg);
  ASSERT_GE(m.timeline.size(), 9u);
  EXPECT_LE(m.timeline.size(), 11u);
  // Samples are cumulative: completions never decrease, energy grows.
  for (std::size_t i = 1; i < m.timeline.size(); ++i) {
    EXPECT_GE(m.timeline[i].requests_completed,
              m.timeline[i - 1].requests_completed);
    EXPECT_GE(m.timeline[i].energy_mj, m.timeline[i - 1].energy_mj);
    EXPECT_GT(m.timeline[i].t_s, m.timeline[i - 1].t_s);
  }
  // The final sample is consistent with the final metrics.
  EXPECT_LE(m.timeline.back().requests_completed, m.requests_completed);
}

TEST(Scenario, RunTwiceThrows) {
  PrecinctConfig cfg;
  cfg.n_nodes = 10;
  cfg.warmup_s = 1;
  cfg.measure_s = 1;
  core::Scenario s(cfg);
  s.run();
  EXPECT_THROW(s.run(), std::logic_error);
}

TEST(Scenario, RunSeedsMergesMetrics) {
  PrecinctConfig cfg;
  cfg.n_nodes = 15;
  cfg.warmup_s = 20;
  cfg.measure_s = 60;
  const auto runs = core::run_seeds(cfg, 3);
  ASSERT_EQ(runs.size(), 3u);
  const auto merged = core::merge_metrics(runs);
  std::uint64_t total = 0;
  for (const auto& r : runs) total += r.requests_issued;
  EXPECT_EQ(merged.requests_issued, total);
  EXPECT_EQ(merged.latency_s.count(),
            runs[0].latency_s.count() + runs[1].latency_s.count() +
                runs[2].latency_s.count());
}

TEST(Scenario, RadioSpeedBoundCoversEveryMobilityModel) {
  // Neighbor discovery and world sharding trust the radio's speed bound
  // to say how far a node can have moved (DESIGN.md §12).  It must cover
  // the fastest speed each mobility model can reach, per node class too,
  // and no node may outrun it between two nearby instants.
  const auto gauss_markov_top = [](double v_min, double v_max) {
    mobility::GaussMarkovConfig gm;  // reverts to the band's middle
    gm.mean_speed = 0.5 * (v_min + v_max);
    return gm.max_speed();
  };
  struct Case {
    PrecinctConfig config;
    double top_speed;
  };
  std::vector<Case> cases;
  PrecinctConfig base;
  base.n_nodes = 30;
  base.v_min = 5.0;
  base.v_max = 15.0;
  base.pause_s = 0.5;
  for (const char* model :
       {"random-waypoint", "random-direction", "manhattan", "commuter"}) {
    PrecinctConfig c = base;
    c.mobility_model = model;
    cases.push_back({c, base.v_max});
  }
  PrecinctConfig gm = base;
  gm.mobility_model = "gauss-markov";
  cases.push_back({gm, gauss_markov_top(5.0, 15.0)});
  // A heterogeneous Gauss-Markov fleet: a faster class and a fixed one.
  PrecinctConfig mix = gm;
  mix.node_classes = {{"bus", 10, 0.0, 30.0, false},
                      {"car", 15, 0.0, 0.0, false},
                      {"rsu", 5, 0.0, 0.0, true}};
  cases.push_back({mix, gauss_markov_top(5.0, 30.0)});

  for (const Case& c : cases) {
    const std::string label =
        c.config.mobility_model +
        (c.config.node_classes.empty() ? "" : " with classes");
    core::Scenario s(c.config);
    net::WirelessNet& radio = s.network();
    const double bound = radio.config().max_node_speed_mps;
    EXPECT_GE(bound, c.top_speed) << label;
    std::vector<geo::Point> prev(radio.node_count());
    for (NodeId i = 0; i < radio.node_count(); ++i) prev[i] = radio.position(i);
    double fastest = 0.0;
    double t_prev = 0.0;
    for (int k = 1; k <= 6000; ++k) {  // every 10 ms for 60 s
      const double t = 0.01 * k;
      s.run_until(t);
      for (NodeId i = 0; i < radio.node_count(); ++i) {
        const geo::Point p = radio.position(i);
        fastest = std::max(fastest, geo::distance(p, prev[i]) / (t - t_prev));
        prev[i] = p;
      }
      t_prev = t;
    }
    EXPECT_GT(fastest, 0.0) << label;
    EXPECT_LE(fastest, bound) << label;
  }
}

}  // namespace
