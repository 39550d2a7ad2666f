// Integration tests: full scenarios asserting the paper's qualitative
// results hold — the same shapes the benches regenerate, at smaller
// scale so they run in seconds.
#include <gtest/gtest.h>

#include "analysis/energy_analysis.hpp"
#include <map>

#include "core/scenario.hpp"
#include "core/world_scenario.hpp"
#include "test_util.hpp"

namespace {

using namespace precinct;
using core::Metrics;
using core::PrecinctConfig;

TEST(Integration, HighSuccessRatioUnderMobility) {
  const auto m = test_util::run_avg(test_util::small_mobile());
  EXPECT_GT(m.success_ratio(), 0.93);
  EXPECT_GT(m.requests_issued, 500u);
}

TEST(Integration, CacheImprovesLatencyAndTraffic) {
  auto with = test_util::small_mobile();
  with.mean_request_interval_s = 10.0;  // enough traffic for hits to pay off
  with.cache_fraction = 0.03;
  auto without = with;
  without.cache_fraction = 0.0;
  const auto mw = test_util::run_avg(with);
  const auto mo = test_util::run_avg(without);
  EXPECT_LT(mw.avg_latency_s(), mo.avg_latency_s());
  EXPECT_GT(mw.byte_hit_ratio(), mo.byte_hit_ratio());
}

TEST(Integration, ByteHitRatioGrowsWithCacheSize) {
  double prev = -1.0;
  for (const double frac : {0.005, 0.015, 0.025}) {
    auto c = test_util::small_mobile();
    c.mean_request_interval_s = 10.0;  // enough distinct items to contend
    c.cache_fraction = frac;
    const auto m = test_util::run_avg(c);
    EXPECT_GT(m.byte_hit_ratio(), prev) << "fraction " << frac;
    prev = m.byte_hit_ratio();
  }
}

TEST(Integration, GdLdBeatsGdSizeOnByteHitRatio) {
  // The paper's Fig 5 headline at one operating point.
  auto gdld = test_util::small_mobile();
  gdld.mean_request_interval_s = 10.0;  // cache must be contended
  gdld.cache_policy = "gd-ld";
  gdld.cache_fraction = 0.015;
  auto gdsize = gdld;
  gdsize.cache_policy = "gd-size";
  const auto m1 = test_util::run_avg(gdld, 4);
  const auto m2 = test_util::run_avg(gdsize, 4);
  EXPECT_GT(m1.byte_hit_ratio(), m2.byte_hit_ratio());
}

TEST(Integration, PrecinctUsesLessEnergyThanFlooding) {
  // Paper Fig 9(a)'s qualitative claim, static topology, no caching.
  PrecinctConfig c;
  c.area = {{0, 0}, {600, 600}};
  c.mobile = false;
  c.n_nodes = 40;
  c.cache_fraction = 0.0;
  c.warmup_s = 50;
  c.measure_s = 300;
  c.catalog.min_item_bytes = 64;
  c.catalog.max_item_bytes = 64;
  auto flood = c;
  flood.retrieval = core::RetrievalKind::kFlooding;
  const auto mp = test_util::run_avg(c);
  const auto mf = test_util::run_avg(flood);
  ASSERT_GT(mp.requests_completed, 100u);
  ASSERT_GT(mf.requests_completed, 100u);
  EXPECT_LT(mp.energy_per_request_mj(), mf.energy_per_request_mj());
}

TEST(Integration, ExpandingRingCheaperThanFloodingSlowerThanPrecinct) {
  PrecinctConfig c;
  c.area = {{0, 0}, {600, 600}};
  c.mobile = false;
  c.n_nodes = 40;
  c.cache_fraction = 0.0;
  c.warmup_s = 50;
  c.measure_s = 300;
  c.catalog.min_item_bytes = 64;
  c.catalog.max_item_bytes = 64;
  auto ring = c;
  ring.retrieval = core::RetrievalKind::kExpandingRing;
  auto flood = c;
  flood.retrieval = core::RetrievalKind::kFlooding;
  const auto mr = test_util::run_avg(ring);
  const auto mf = test_util::run_avg(flood);
  EXPECT_LT(mr.energy_per_request_mj(), mf.energy_per_request_mj());
  EXPECT_GT(mr.avg_latency_s(), mf.avg_latency_s());  // ring retries cost time
}

TEST(Integration, ConsistencyOverheadOrdering) {
  // Paper Fig 6: Plain-Push >> Pull-Every-time > Push-with-Adaptive-Pull.
  auto base = test_util::small_mobile();
  base.updates_enabled = true;
  base.mean_update_interval_s = 60.0;  // Tupdate/Trequest = 2
  std::map<consistency::Mode, std::uint64_t> overhead;
  for (const auto mode :
       {consistency::Mode::kPlainPush, consistency::Mode::kPullEveryTime,
        consistency::Mode::kPushAdaptivePull}) {
    auto c = base;
    c.consistency = mode;
    overhead[mode] = test_util::run_avg(c).consistency_messages;
  }
  EXPECT_GT(overhead[consistency::Mode::kPlainPush],
            overhead[consistency::Mode::kPullEveryTime]);
  EXPECT_GT(overhead[consistency::Mode::kPullEveryTime],
            overhead[consistency::Mode::kPushAdaptivePull]);
}

TEST(Integration, AdaptivePullHasHighestButSmallFalseHitRatio) {
  // Paper Fig 7: FHR(adaptive) >= FHR(others), and small (<~2 %).
  auto base = test_util::small_mobile();
  base.updates_enabled = true;
  base.mean_update_interval_s = 30.0;  // highest update rate
  std::map<consistency::Mode, double> fhr;
  for (const auto mode :
       {consistency::Mode::kPlainPush, consistency::Mode::kPullEveryTime,
        consistency::Mode::kPushAdaptivePull}) {
    auto c = base;
    c.consistency = mode;
    fhr[mode] = test_util::run_avg(c, 4).false_hit_ratio();
  }
  EXPECT_GE(fhr[consistency::Mode::kPushAdaptivePull],
            fhr[consistency::Mode::kPullEveryTime]);
  EXPECT_LT(fhr[consistency::Mode::kPushAdaptivePull], 0.05);
  EXPECT_LT(fhr[consistency::Mode::kPullEveryTime], 0.03);
}

TEST(Integration, PullEveryTimeHasHighestLatency) {
  // Paper Fig 8.  A faster request rate raises the cached-serve share,
  // which is where Pull-Every-time pays its validation round trip.
  auto base = test_util::small_mobile();
  base.mean_request_interval_s = 10.0;
  base.cache_fraction = 0.03;
  base.updates_enabled = true;
  base.mean_update_interval_s = 30.0;
  std::map<consistency::Mode, double> latency;
  for (const auto mode :
       {consistency::Mode::kPlainPush, consistency::Mode::kPullEveryTime,
        consistency::Mode::kPushAdaptivePull}) {
    auto c = base;
    c.consistency = mode;
    latency[mode] = test_util::run_avg(c, 4).avg_latency_s();
  }
  EXPECT_GT(latency[consistency::Mode::kPullEveryTime],
            latency[consistency::Mode::kPushAdaptivePull]);
  EXPECT_GT(latency[consistency::Mode::kPullEveryTime],
            latency[consistency::Mode::kPlainPush]);
}

TEST(Integration, SimulationTracksTheoryForPrecinctEnergy) {
  // Paper Fig 9 validation: simulated energy/request within a factor of
  // ~2.5 of the closed-form model (the paper itself reports divergence
  // from edge effects).
  PrecinctConfig c;
  c.area = {{0, 0}, {600, 600}};
  c.mobile = false;
  c.n_nodes = 40;
  c.cache_fraction = 0.0;
  c.warmup_s = 50;
  c.measure_s = 400;
  c.catalog.min_item_bytes = 64;
  c.catalog.max_item_bytes = 64;
  const auto m = test_util::run_avg(c);
  analysis::EnergyAnalysisParams p;
  p.n_nodes = 40;
  p.area = c.area;
  p.request_bytes = 64;
  p.response_bytes = 64 + 64;
  const double theory = analysis::precinct_energy_per_request(p);
  const double sim = m.energy_per_request_mj();
  EXPECT_GT(sim, theory / 2.5);
  EXPECT_LT(sim, theory * 2.5);
}

TEST(Integration, ChurnSteadyStateStaysAvailable) {
  auto c = test_util::small_mobile();
  c.crash_rate_per_s = 0.05;
  c.join_rate_per_s = 0.05;  // crashes balanced by rejoins
  c.graceful_fraction = 0.3;
  const auto m = test_util::run_avg(c);
  EXPECT_GT(m.success_ratio(), 0.85);
  EXPECT_GT(m.requests_completed, 300u);
}

TEST(Integration, SurvivesContinuousCrashes) {
  auto c = test_util::small_mobile();
  c.crash_rate_per_s = 0.02;  // one crash every ~50 s
  c.graceful_fraction = 0.5;
  const auto m = test_util::run_avg(c);
  EXPECT_GT(m.success_ratio(), 0.8);
  EXPECT_GT(m.requests_completed, 200u);
}

TEST(Integration, ReplicationImprovesAvailabilityUnderCrashes) {
  auto with = test_util::small_mobile();
  with.crash_rate_per_s = 0.05;
  with.graceful_fraction = 0.0;  // sudden deaths only
  auto without = with;
  without.replica_count = 0;
  const auto mw = test_util::run_avg(with, 4);
  const auto mo = test_util::run_avg(without, 4);
  EXPECT_GT(mw.success_ratio(), mo.success_ratio());
}

TEST(Integration, MoreRegionsReduceEnergyPerRequest) {
  // Paper Fig 9(b) shape at two region counts.
  PrecinctConfig c;
  c.area = {{0, 0}, {600, 600}};
  c.mobile = false;
  c.n_nodes = 30;
  c.cache_fraction = 0.0;
  c.warmup_s = 50;
  c.measure_s = 300;
  c.catalog.min_item_bytes = 64;
  c.catalog.max_item_bytes = 64;
  auto few = c;
  few.regions_x = few.regions_y = 1;
  few.replica_count = 0;  // a single region cannot host a replica
  auto many = c;
  many.regions_x = many.regions_y = 4;
  const auto mf = test_util::run_avg(few);
  const auto mm = test_util::run_avg(many);
  EXPECT_LT(mm.energy_per_request_mj(), mf.energy_per_request_mj());
}

// Parameterized invariant sweep: across seeds and configurations, the
// accounting identities that must always hold.
struct InvariantCase {
  const char* name;
  PrecinctConfig config;
};

class ScenarioInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScenarioInvariants, AccountingIdentitiesHold) {
  std::vector<PrecinctConfig> cases;
  {
    PrecinctConfig c = test_util::small_mobile(GetParam());
    cases.push_back(c);
    c.updates_enabled = true;
    c.consistency = consistency::Mode::kPushAdaptivePull;
    cases.push_back(c);
    PrecinctConfig f = test_util::small_mobile(GetParam());
    f.retrieval = core::RetrievalKind::kFlooding;
    f.measure_s = 200;
    cases.push_back(f);
    PrecinctConfig d = test_util::small_mobile(GetParam());
    d.dynamic_regions = true;
    d.crash_rate_per_s = 0.01;
    d.graceful_fraction = 0.5;
    d.measure_s = 200;
    cases.push_back(d);
  }
  for (const auto& c : cases) {
    const Metrics m = core::run_scenario(c);
    // Completion accounting: every issued request resolves exactly once.
    EXPECT_EQ(m.requests_completed + m.requests_failed, m.requests_issued);
    // Hit classes partition the completions.
    EXPECT_EQ(m.own_cache_hits + m.regional_hits + m.en_route_hits +
                  m.home_region_hits + m.replica_hits,
              m.requests_completed);
    // Latency samples exist for every completion.
    EXPECT_EQ(m.latency_s.count(), m.requests_completed);
    EXPECT_GE(m.latency_s.min(), 0.0);
    // Byte accounting is bounded by what was requested.
    EXPECT_LE(m.bytes_hit, m.bytes_requested);
    // Stale serves never exceed serves.
    EXPECT_LE(m.false_hits, m.cache_served_valid);
    // Physics: traffic costs energy; no traffic costs none.
    if (m.messages_sent > 0) {
      EXPECT_GT(m.energy_total_mj, 0.0);
    }
    EXPECT_GE(m.energy_total_mj, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, ScenarioInvariants,
                         ::testing::Values(101, 202, 303, 404, 505));

// The per-node neighbor cache (DESIGN.md §7, "Grid-epoch invalidation") is
// a pure memoization: flipping it on or off must not change a single metric
// of a fixed-seed run, whether a mobile world's skin lists, a static
// world's epoch-keyed lists under churn or a two-domain world's replicas
// serve it.  Guards against the cache ever observing stale topology.
TEST(Integration, NeighborCacheDoesNotChangeResults) {
  auto cfg = test_util::small_mobile(424242);
  cfg.n_nodes = 40;
  cfg.warmup_s = 50;
  cfg.measure_s = 200;

  auto cached = cfg;
  cached.wireless.neighbor_cache = true;
  auto uncached = cfg;
  uncached.wireless.neighbor_cache = false;

  const Metrics a = core::merge_metrics(core::run_seeds(cached, 2));
  const Metrics b = core::merge_metrics(core::run_seeds(uncached, 2));

  EXPECT_EQ(a.requests_issued, b.requests_issued);
  EXPECT_EQ(a.requests_completed, b.requests_completed);
  EXPECT_EQ(a.requests_failed, b.requests_failed);
  EXPECT_EQ(a.own_cache_hits, b.own_cache_hits);
  EXPECT_EQ(a.regional_hits, b.regional_hits);
  EXPECT_EQ(a.en_route_hits, b.en_route_hits);
  EXPECT_EQ(a.home_region_hits, b.home_region_hits);
  EXPECT_EQ(a.replica_hits, b.replica_hits);
  EXPECT_EQ(a.latency_s.count(), b.latency_s.count());
  EXPECT_EQ(a.latency_s.sum(), b.latency_s.sum());
  EXPECT_EQ(a.latency_s.min(), b.latency_s.min());
  EXPECT_EQ(a.latency_s.max(), b.latency_s.max());
  EXPECT_EQ(a.bytes_requested, b.bytes_requested);
  EXPECT_EQ(a.bytes_hit, b.bytes_hit);
  EXPECT_EQ(a.energy_total_mj, b.energy_total_mj);
  EXPECT_EQ(a.energy_broadcast_mj, b.energy_broadcast_mj);
  EXPECT_EQ(a.energy_p2p_mj, b.energy_p2p_mj);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.consistency_messages, b.consistency_messages);
  EXPECT_EQ(a.frames_lost, b.frames_lost);
  EXPECT_EQ(a.events_executed, b.events_executed);

  // core::fingerprint renders every Metrics field on a line of its own,
  // so the string comparisons below name any field that differs.
  {
    // A static world under loss and churn: lists are kept across
    // timestamps until a kill or a revive moves the topology epoch.
    auto still = cfg;
    still.mobile = false;
    still.wireless.channel.model = "bernoulli";
    still.wireless.channel.loss_p = 0.05;
    still.request_retries = 2;
    still.crash_rate_per_s = 0.02;
    still.join_rate_per_s = 0.02;
    still.graceful_fraction = 0.5;
    auto still_uncached = still;
    still_uncached.wireless.neighbor_cache = false;
    core::Scenario scenario(still);
    const Metrics s = scenario.run();
    // Past the one grid build, only kills and revives move the epoch.
    EXPECT_GT(scenario.network().topology_epoch(), 4u);
    EXPECT_EQ(core::fingerprint(s),
              core::fingerprint(core::run_scenario(still_uncached)));
  }
  {
    // One world cut into region-column domains on two shards: every
    // domain's replica radio keeps its own lists.
    auto world = cfg;
    world.shards = 2;
    world.measure_s = 100;
    auto world_uncached = world;
    world_uncached.wireless.neighbor_cache = false;
    EXPECT_EQ(
        core::world_fingerprint(core::run_world_scenario(world)),
        core::world_fingerprint(core::run_world_scenario(world_uncached)));
  }
}

}  // namespace
