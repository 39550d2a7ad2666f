// World sharding (DESIGN.md §13): column ownership, the derived
// conservative lookahead, the shards-invariance contract with real radio
// traffic crossing the cut, the cross-domain conservation audit, the
// observe-only invariant checker, single-domain equivalence with the
// plain scenario, the worker cap at the usable CPUs, idle window
// skipping, the one-window bound on halo staleness, and the coupling
// rules every execution shares (DomainLink and its ledger) driven through
// a recording fake transport.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/domain_link.hpp"
#include "core/scenario.hpp"
#include "core/world_scenario.hpp"
#include "geo/shard_partition.hpp"
#include "net/wireless_net.hpp"
#include "sim/shard_exec.hpp"
#include "test_util.hpp"
#include "transport/wire_format.hpp"

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

TEST(WorldShardedScenarioTest, WorkersNeverOutnumberUsableCpus) {
  // On one usable CPU a second worker could only take turns with the
  // first, so shards = 4 runs every domain inline on the caller — with
  // the world fingerprint of shards = 1.
  const std::string expected =
      core::world_fingerprint(core::run_world_scenario(world_config(1)));
  const precinct::test_util::OneCpuAffinity pin;
  const core::WorldShardedMetrics m = core::run_world_scenario(world_config(4));
  EXPECT_EQ(m.domains, 3u);
  EXPECT_EQ(m.shards, 1u);
  EXPECT_EQ(core::world_fingerprint(m), expected);
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

// ---- the coupling rules (core::DomainLink, core::WorldLedger) --------------

/// A conserving world ledger: 4 of 5 frames and 4 of 6 deltas processed,
/// the rest due beyond the horizon.
core::WorldLedger balanced_ledger() {
  core::WorldLedger l;
  l.windows = 7;
  l.messages_merged = 11;
  l.frames_posted = 5;
  l.frames_processed = 4;
  l.frames_beyond_horizon = 1;
  l.deltas_posted = 6;
  l.deltas_processed = 4;
  l.deltas_beyond_horizon = 2;
  return l;
}

/// The message of the std::logic_error `ledger.audit()` throws, or "".
std::string audit_error(const core::WorldLedger& ledger) {
  try {
    ledger.audit();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

TEST(WorldLedger, AuditThrowsNamingTheCountsWhenAMessageIsMissing) {
  core::WorldLedger l = balanced_ledger();
  EXPECT_EQ(audit_error(l), "");

  --l.frames_processed;  // one frame never executed at its destination
  const std::string frames = audit_error(l);
  EXPECT_NE(frames.find("frames processed 3 of 4"), std::string::npos)
      << frames;

  l = balanced_ledger();
  --l.deltas_processed;  // one halo delta lost
  const std::string deltas = audit_error(l);
  EXPECT_NE(deltas.find("deltas processed 3 of 4"), std::string::npos)
      << deltas;
}

TEST(WorldLedger, AddDomainSumsAndRequiresEqualWindows) {
  core::WorldLedger world = balanced_ledger();
  world.add_domain(balanced_ledger());
  EXPECT_EQ(world.windows, 7u);  // shared, not summed
  EXPECT_EQ(world.messages_merged, 22u);
  EXPECT_EQ(world.frames_posted, 10u);
  EXPECT_EQ(world.deltas_beyond_horizon, 4u);
  EXPECT_NO_THROW(world.audit());

  core::WorldLedger lagging = balanced_ledger();
  lagging.windows = 6;
  EXPECT_THROW(world.add_domain(lagging), std::invalid_argument);
}

/// A DomainLink over a fake transport: the test sets the window end, and
/// send() records every (destination, message) it is handed.
class RecordingLink final : public core::DomainLink {
 public:
  RecordingLink(core::Scenario& replica,
                const std::vector<std::uint32_t>& owner)
      : DomainLink(replica, 0, owner) {}

  double window_end_s = 0.0;
  std::vector<std::pair<std::uint32_t, transport::DataMsg>> sent;

 private:
  [[nodiscard]] double window_end() const override { return window_end_s; }
  void send(std::uint32_t dst, const transport::DataMsg& msg) override {
    sent.emplace_back(dst, msg);
  }
};

/// Domain 0 of the 3-column world_config world, linked through a
/// RecordingLink; the run horizon is 30 s.
struct LinkedReplica {
  PrecinctConfig config = world_config(1);
  core::Scenario replica{core::world_domain_config(config)};
  std::vector<std::uint32_t> owner =
      core::world_node_owners(config, replica.network());
  RecordingLink link{replica, owner};

  /// A node domain 0 does not own.
  [[nodiscard]] net::NodeId foreign() const {
    for (net::NodeId i = 0; i < owner.size(); ++i) {
      if (owner[i] != 0) return i;
    }
    return net::kNoNode;
  }
};

TEST(DomainLink, FrameDueAtTheHorizonIsBeyondOnlyInTheFinalWindow) {
  LinkedReplica w;
  const double horizon = w.config.end_time_s();
  net::Packet p;
  p.src = w.foreign();

  w.link.window_end_s = horizon - 1.0;  // merged before the last window
  w.link.post_frame(1, horizon, p, false, net::kNoNode);
  EXPECT_EQ(w.link.ledger().frames_beyond_horizon, 0u);
  w.link.post_frame(2, horizon + 0.5, p, false, net::kNoNode);
  EXPECT_EQ(w.link.ledger().frames_beyond_horizon, 1u);

  w.link.window_end_s = horizon;  // posted in the final window
  w.link.post_frame(1, horizon, p, false, net::kNoNode);
  EXPECT_EQ(w.link.ledger().frames_beyond_horizon, 2u);
  EXPECT_EQ(w.link.ledger().frames_posted, 3u);
  ASSERT_EQ(w.link.sent.size(), 3u);
  EXPECT_EQ(w.link.sent[1].first, 2u);
}

TEST(DomainLink, FrameDueBeforeTheWindowEndThrows) {
  LinkedReplica w;
  net::Packet p;
  p.src = w.foreign();
  w.link.window_end_s = 10.0;
  EXPECT_THROW(w.link.post_frame(1, 9.999, p, false, net::kNoNode),
               std::logic_error);
  EXPECT_TRUE(w.link.sent.empty());
  EXPECT_EQ(w.link.ledger().frames_posted, 0u);
}

TEST(DomainLink, DeltaPostedMidWindowIsDueAtTheWindowEnd) {
  LinkedReplica w;
  const geo::Key key = w.replica.catalog().key_of(0);
  w.link.window_end_s = 5.0;
  w.link.post_catalog_update(key, 3, 4.25);

  // One copy to every other domain, due at the window boundary; the
  // write instant travels unchanged.
  ASSERT_EQ(w.link.sent.size(), 2u);
  for (std::uint32_t i = 0; i < 2; ++i) {
    EXPECT_EQ(w.link.sent[i].first, i + 1);
    const auto& m = std::get<transport::CatalogMsg>(w.link.sent[i].second);
    EXPECT_EQ(m.due, 5.0);
    EXPECT_EQ(m.written_at, 4.25);
    EXPECT_EQ(m.version, 3u);
  }
  EXPECT_EQ(w.link.ledger().deltas_posted, 2u);
  EXPECT_EQ(w.link.ledger().deltas_beyond_horizon, 0u);
}

TEST(DomainLink, ApplyCountsProcessedMessages) {
  LinkedReplica w;
  const net::NodeId node = w.foreign();
  const geo::Key key = w.replica.catalog().key_of(0);

  w.link.apply(transport::LivenessMsg{1.0, node, false});
  EXPECT_FALSE(w.replica.network().is_alive(node));
  w.link.apply(transport::RegionMsg{1.0, node, 0});
  w.link.apply(transport::CatalogMsg{1.0, key, 9, 0.5});
  EXPECT_EQ(w.replica.catalog().item(key).version, 9u);
  // A frame from the node just killed: counted, then dropped by the
  // replica's halo copy of the sender's liveness.
  transport::FrameMsg frame;
  frame.due = 1.0;
  frame.packet.src = node;
  w.link.apply(frame);

  EXPECT_EQ(w.link.ledger().frames_processed, 1u);
  EXPECT_EQ(w.link.ledger().deltas_processed, 3u);
  EXPECT_EQ(w.link.ledger().frames_posted, 0u);
  EXPECT_TRUE(w.link.sent.empty());  // applying never echoes a delta
}

}  // namespace
