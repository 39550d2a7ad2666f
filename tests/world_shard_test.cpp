// World sharding (DESIGN.md §13): column ownership, the derived
// conservative lookahead, the shards-invariance contract with real radio
// traffic crossing the cut, the cross-domain conservation audit, the
// observe-only invariant checker, single-domain equivalence with the
// plain scenario, idle window skipping, and the one-window bound on halo
// staleness.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "core/world_scenario.hpp"
#include "geo/shard_partition.hpp"
#include "net/wireless_net.hpp"
#include "sim/shard_exec.hpp"

namespace {

using namespace precinct;
using core::PrecinctConfig;

/// A small world whose traffic keeps straddling the cut: fast nodes,
/// short pauses, churn with graceful handoffs, and an update workload so
/// catalog-version deltas flow too.
PrecinctConfig world_config(std::uint32_t shards) {
  PrecinctConfig c;
  c.n_nodes = 36;
  c.area = {{0.0, 0.0}, {900.0, 900.0}};
  c.regions_x = c.regions_y = 3;
  c.v_max = 8.0;
  c.pause_s = 1.0;
  c.catalog.n_items = 300;
  c.mean_request_interval_s = 6.0;
  c.updates_enabled = true;
  c.consistency = consistency::Mode::kPushAdaptivePull;
  c.mean_update_interval_s = 15.0;
  c.crash_rate_per_s = 0.02;
  c.join_rate_per_s = 0.02;
  c.graceful_fraction = 1.0;
  c.warmup_s = 5.0;
  c.measure_s = 25.0;
  c.seed = 99;
  c.shards = shards;
  return c;
}

// ---- geo world helpers ------------------------------------------------------

TEST(WorldPartition, ColumnOwnershipClampsAtEdges) {
  // Columns of a 4-column world on [0, 800): 200 m each.
  EXPECT_EQ(geo::world_column_of(0.0, 0.0, 800.0, 4), 0u);
  EXPECT_EQ(geo::world_column_of(199.9, 0.0, 800.0, 4), 0u);
  EXPECT_EQ(geo::world_column_of(200.0, 0.0, 800.0, 4), 1u);
  EXPECT_EQ(geo::world_column_of(799.9, 0.0, 800.0, 4), 3u);
  // On (and numerically past) the plane boundary stays inside.
  EXPECT_EQ(geo::world_column_of(800.0, 0.0, 800.0, 4), 3u);
  EXPECT_EQ(geo::world_column_of(-0.5, 0.0, 800.0, 4), 0u);
}

// ---- construction ----------------------------------------------------------

TEST(WorldScenario, LookaheadIsDerivedFromRadioTiming) {
  const PrecinctConfig c = world_config(2);
  core::WorldShardedScenario world(c);
  EXPECT_GT(world.lookahead_s(), 0.0);
  EXPECT_DOUBLE_EQ(world.lookahead_s(),
                   net::WirelessNet::world_lookahead(c.wireless));
  EXPECT_DOUBLE_EQ(world.lookahead_s(),
                   c.wireless.mac_overhead_s + c.wireless.propagation_s);
  // One domain per region column, each owning the nodes whose t=0
  // position falls in its strip.
  EXPECT_EQ(world.domain_count(), c.regions_x);
  EXPECT_EQ(world.owner().size(), c.n_nodes);
  for (const std::uint32_t d : world.owner()) EXPECT_LT(d, c.regions_x);
}

TEST(WorldScenario, RejectsGlobalReconfigurationAndZeroLookahead) {
  for (const std::uint32_t k : {1u, 2u}) {
    PrecinctConfig c = world_config(k);
    c.dynamic_regions = true;  // global region-table reconfiguration
    EXPECT_THROW(core::WorldShardedScenario{c}, std::invalid_argument)
        << "shards=" << k;
  }
  {
    PrecinctConfig c = world_config(2);
    c.wireless.mac_overhead_s = 0.0;  // a zero-latency radio admits no
    c.wireless.propagation_s = 0.0;   // conservative window
    EXPECT_THROW(core::WorldShardedScenario{c}, std::invalid_argument);
  }
}

// ---- the shards-invariance contract ----------------------------------------

TEST(WorldShardedScenarioTest, FingerprintInvariantAcrossShardCounts) {
  const core::WorldShardedMetrics baseline =
      core::run_world_scenario(world_config(1));
  const std::string expected = core::world_fingerprint(baseline);

  // The run must be non-trivial: real protocol frames crossed the cut,
  // halo deltas flowed, custody moved, and requests completed.
  EXPECT_GT(baseline.frames_posted, 0u);
  EXPECT_GT(baseline.deltas_posted, 0u);
  EXPECT_GT(baseline.aggregate.requests_completed, 0u);
  EXPECT_GT(baseline.aggregate.custody_handoffs, 0u);

  for (const std::uint32_t k : {2u, 4u}) {
    const core::WorldShardedMetrics sharded =
        core::run_world_scenario(world_config(k));
    EXPECT_EQ(core::world_fingerprint(sharded), expected) << "shards=" << k;
  }
}

TEST(WorldShardedScenarioTest, CheckAllHoldsAndConservationAudits) {
  PrecinctConfig c = world_config(2);
  c.check = "all";
  c.check_stride = 1;
  // run() itself throws on a conservation violation; re-assert the
  // ledger here so the test reads as the contract.
  const core::WorldShardedMetrics m = core::run_world_scenario(c);
  EXPECT_EQ(m.frames_processed, m.frames_posted - m.frames_beyond_horizon);
  EXPECT_EQ(m.deltas_processed, m.deltas_posted - m.deltas_beyond_horizon);
  EXPECT_GT(m.windows, 0u);
}

TEST(WorldShardedScenarioTest, PerDomainInvariantCheckerIsObserveOnly) {
  PrecinctConfig c = world_config(2);
  c.check = "all";  // every domain runs its own InvariantChecker
  c.check_stride = 16;
  const std::string checked =
      core::world_fingerprint(core::run_world_scenario(c));
  c.check.clear();
  // The checker is observe-only: enabling it must not change results.
  EXPECT_EQ(checked, core::world_fingerprint(core::run_world_scenario(c)));
}

TEST(WorldShardedScenarioTest, SingleDomainMatchesPlainScenario) {
  // A one-column world is one domain that owns every node: the windowed
  // executor must then reproduce a direct Scenario run of the replica
  // config.  Churn stays out on purpose — world mode draws crashes and
  // joins from a per-domain stream, so a churning world and the plain
  // scenario legitimately differ.
  PrecinctConfig base = world_config(1);
  base.regions_x = 1;
  base.crash_rate_per_s = 0.0;
  base.join_rate_per_s = 0.0;
  PrecinctConfig lossy = base;
  lossy.consistency = consistency::Mode::kNone;
  lossy.updates_enabled = false;
  lossy.wireless.channel.model = "bernoulli";
  lossy.wireless.channel.loss_p = 0.2;
  lossy.request_retries = 3;
  for (const PrecinctConfig& c : {base, lossy}) {
    const core::WorldShardedMetrics world = core::run_world_scenario(c);
    ASSERT_EQ(world.per_domain.size(), 1u);
    EXPECT_EQ(world.frames_posted, 0u);
    const core::Metrics direct =
        core::run_scenario(core::world_domain_config(c));
    EXPECT_GT(direct.requests_completed, 0u);
    EXPECT_EQ(core::fingerprint(world.per_domain[0]),
              core::fingerprint(direct))
        << "channel=" << c.wireless.channel.model;
  }
}

TEST(WorldShardedScenarioTest, SkipsIdleWindowsForEveryShardCount) {
  // Next-event window agreement (DESIGN.md §11) keeps a grid window only
  // when some domain has an event or a message due in it (plus each
  // phase's first and last).  The fixed cadence ran every grid window of
  // both phases; the kept count must stay well below that and, being in
  // the fingerprint, equal across shard counts.
  const PrecinctConfig c = world_config(1);
  const double lookahead = net::WirelessNet::world_lookahead(c.wireless);
  std::uint64_t grid = 0;
  double t = 0.0;
  for (const double phase_end : {c.warmup_s, c.end_time_s()}) {
    for (; t < phase_end; ++grid) {
      t = sim::next_window_end(t, -std::numeric_limits<double>::infinity(),
                               lookahead, phase_end);
    }
  }
  const core::WorldShardedMetrics one = core::run_world_scenario(c);
  EXPECT_LT(one.windows, grid / 2) << "fixed-cadence windows: " << grid;
  EXPECT_GT(one.messages_merged, 0u);
  const core::WorldShardedMetrics two =
      core::run_world_scenario(world_config(2));
  EXPECT_EQ(two.windows, one.windows);
}

TEST(WorldShardedScenarioTest, HaloLivenessStalenessIsBoundedByTheHorizon) {
  // Remote liveness is at most one window stale during the run and
  // exactly reconciled at every window boundary — so at the end of the
  // run the only admissible disagreements are deltas whose due fell
  // beyond the horizon (posted during the final window).
  core::WorldShardedScenario world(world_config(2));
  const core::WorldShardedMetrics m = world.run();

  std::uint64_t disagreements = 0;
  for (std::uint32_t d = 0; d < world.domain_count(); ++d) {
    const net::WirelessNet& view = world.domain(d).network();
    for (net::NodeId i = 0; i < world.owner().size(); ++i) {
      const net::WirelessNet& truth =
          world.domain(world.owner()[i]).network();
      if (view.is_alive(i) != truth.is_alive(i)) ++disagreements;
    }
  }
  EXPECT_LE(disagreements, m.deltas_beyond_horizon);
}

}  // namespace
