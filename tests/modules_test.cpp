// Module-seam tests for the layered protocol architecture (DESIGN.md §8):
// the built-in scheme catalog, the per-PacketKind dispatch table
// (exclusive ownership), scheme names and scheme/consistency combination
// validation, custody relocation driven through the extracted
// CustodyManager, and the engine's installed schemes.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/config_io.hpp"
#include "core/engine.hpp"
#include "test_util.hpp"
#include "mobility/static_placement.hpp"
#include "net/packet_dispatch.hpp"
#include "net/wireless_net.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace precinct;
using core::PrecinctConfig;
using core::PrecinctEngine;
using net::NodeId;

// Fails the test unless parsing `text` throws std::invalid_argument whose
// message contains every fragment.
void expect_kv_rejected(const char* text,
                        const std::vector<const char*>& fragments) {
  try {
    (void)core::config_from_kv(support::KvFile::parse(text));
    ADD_FAILURE() << text << " was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const char* fragment : fragments) {
      EXPECT_NE(what.find(fragment), std::string::npos)
          << fragment << " missing from: " << what;
    }
  }
}

// ---------------------------------------------------------------------------
// Built-in scheme catalog. The engine builds its schemes with a switch on
// RetrievalKind and consistency::Mode, so the catalog is the enums.
// ---------------------------------------------------------------------------

TEST(SchemeRegistry, BuiltinsAreRegistered) {
  // Every enum value builds an engine whose scheme name names it.
  for (const auto kind :
       {core::RetrievalKind::kPrecinct, core::RetrievalKind::kFlooding,
        core::RetrievalKind::kExpandingRing}) {
    test_util::GridHarness h(test_util::grid_config(), /*start=*/false);
    h.config.retrieval = kind;
    EXPECT_STREQ(h.build().retrieval_scheme_name(), to_string(kind));
  }
  for (const auto mode :
       {consistency::Mode::kNone, consistency::Mode::kPlainPush,
        consistency::Mode::kPullEveryTime,
        consistency::Mode::kPushAdaptivePull}) {
    test_util::GridHarness h(test_util::grid_config(), /*start=*/false);
    h.config.consistency = mode;
    h.config.updates_enabled = mode != consistency::Mode::kNone;
    EXPECT_STREQ(h.build().consistency_scheme_name(),
                 consistency::to_string(mode));
  }
}

TEST(SchemeRegistry, UnknownSchemeFailsEngineConstructionWithCatalog) {
  // An unknown name cannot reach the engine: it fails at parse time,
  // naming the key and the value and listing every built-in scheme.
  expect_kv_rejected("retrieval = warp-drive\n",
                     {"'retrieval'", "warp-drive", "precinct", "flooding",
                      "expanding-ring"});
  expect_kv_rejected("consistency = quorum\n",
                     {"'consistency'", "quorum", "none", "plain-push",
                      "pull-every-time", "push-adaptive-pull"});
}

// ---------------------------------------------------------------------------
// Packet dispatch table
// ---------------------------------------------------------------------------

TEST(PacketDispatch, EveryKindHasExactlyOneOwnerOnAWiredEngine) {
  test_util::GridHarness h(test_util::grid_config(), /*start=*/false);
  PrecinctEngine& engine = h.build();
  for (std::size_t i = 0; i < net::kPacketKindCount; ++i) {
    const auto kind = static_cast<net::PacketKind>(i);
    EXPECT_TRUE(engine.dispatcher().has(kind)) << net::to_string(kind);
  }
  EXPECT_EQ(engine.dispatcher().unhandled_kinds(), 0u);
}

TEST(PacketDispatch, DuplicateOwnerIsAWiringError) {
  net::PacketDispatcher dispatch;
  dispatch.set(net::PacketKind::kBeacon, [](NodeId, const net::Packet&) {});
  EXPECT_THROW(dispatch.set(net::PacketKind::kBeacon,
                            [](NodeId, const net::Packet&) {}),
               std::logic_error);
  EXPECT_THROW(dispatch.set(net::PacketKind::kRequest, nullptr),
               std::invalid_argument);
}

TEST(PacketDispatch, UnownedKindsDropInsteadOfCrashing) {
  net::PacketDispatcher dispatch;
  int calls = 0;
  dispatch.set(net::PacketKind::kRequest,
               [&](NodeId, const net::Packet&) { ++calls; });
  net::Packet packet;
  packet.kind = net::PacketKind::kRequest;
  EXPECT_TRUE(dispatch.dispatch(0, packet));
  packet.kind = net::PacketKind::kResponse;
  EXPECT_FALSE(dispatch.dispatch(0, packet));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(dispatch.unhandled_kinds(), net::kPacketKindCount - 1);
}

// ---------------------------------------------------------------------------
// Scheme combination validation
// ---------------------------------------------------------------------------

TEST(Config, RejectsBaselineRetrievalWithPollingConsistency) {
  const auto expect_rejected = [](core::RetrievalKind retrieval,
                                  consistency::Mode mode) {
    PrecinctConfig c;
    c.retrieval = retrieval;
    c.consistency = mode;
    c.updates_enabled = true;
    try {
      c.validate();
      FAIL() << "expected rejection of " << to_string(retrieval) << " + "
             << consistency::to_string(mode);
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("polling"), std::string::npos)
          << e.what();
    }
  };
  expect_rejected(core::RetrievalKind::kFlooding,
                  consistency::Mode::kPushAdaptivePull);
  expect_rejected(core::RetrievalKind::kFlooding,
                  consistency::Mode::kPullEveryTime);
  expect_rejected(core::RetrievalKind::kExpandingRing,
                  consistency::Mode::kPushAdaptivePull);
  expect_rejected(core::RetrievalKind::kExpandingRing,
                  consistency::Mode::kPullEveryTime);
}

TEST(Config, AllowsBaselineRetrievalWithPushOrNoConsistency) {
  for (const auto mode :
       {consistency::Mode::kNone, consistency::Mode::kPlainPush}) {
    PrecinctConfig c;
    c.retrieval = core::RetrievalKind::kFlooding;
    c.consistency = mode;
    c.updates_enabled = mode != consistency::Mode::kNone;
    EXPECT_NO_THROW(c.validate()) << consistency::to_string(mode);
  }
  PrecinctConfig c;
  c.consistency = consistency::Mode::kPushAdaptivePull;
  c.updates_enabled = true;
  EXPECT_NO_THROW(c.validate());  // precinct retrieval polls fine
}

TEST(Config, RejectsUnknownSchemeNamesAtValidation) {
  // Scheme names are checked where they are read, so an unknown one
  // never reaches validate().
  expect_kv_rejected("retrieval = definitely-not-registered\n",
                     {"'retrieval'"});
  expect_kv_rejected("consistency = definitely-not-registered\n",
                     {"'consistency'"});
}

TEST(Config, KvSchemeNamesMapToEnumsOrRegistryStrings) {
  const auto builtin = core::config_from_kv(
      support::KvFile::parse("retrieval = expanding-ring\n"
                             "consistency = plain-push\n"));
  EXPECT_EQ(builtin.retrieval, core::RetrievalKind::kExpandingRing);
  EXPECT_EQ(builtin.consistency, consistency::Mode::kPlainPush);
  EXPECT_TRUE(builtin.updates_enabled);
  // Only built-in names are accepted: there is no free-form scheme string.
  expect_kv_rejected("retrieval = custom-lookup\n", {"custom-lookup"});
  expect_kv_rejected("consistency = custom-sync\n", {"custom-sync"});
}

// ---------------------------------------------------------------------------
// CustodyManager through the facade
// ---------------------------------------------------------------------------

TEST(Custody, MergeThenSeparateRoundTripKeepsEveryKeyServed) {
  test_util::GridHarness h(test_util::grid_config(), /*start=*/false);
  PrecinctEngine& engine = h.build();
  const auto merged = engine.merge_regions(0, 1, /*initiator=*/4);
  ASSERT_TRUE(merged.has_value());
  h.settle(8.0);
  ASSERT_EQ(engine.region_table().size(), 8u);
  const auto halves = engine.separate_region(*merged, /*initiator=*/4);
  ASSERT_TRUE(halves.has_value());
  h.settle(8.0);
  EXPECT_EQ(engine.region_table().size(), 9u);
  // After the round trip every key still has a live custodian, and
  // requests from the far corner still complete.
  for (std::size_t i = 0; i < h.catalog.size(); ++i) {
    EXPECT_GT(engine.custody_count(h.catalog.key_of(i)), 0u)
        << "key rank " << i;
  }
  engine.issue_request(8, h.catalog.key_of(0));
  h.settle(8.0);
  EXPECT_GE(engine.metrics().requests_completed, 1u);
  EXPECT_EQ(engine.metrics().requests_failed, 0u);
}

TEST(Custody, RegionPopulationTracksFailuresAcrossTheSeam) {
  test_util::GridHarness h(test_util::grid_config(), /*start=*/false);
  PrecinctEngine& engine = h.build();
  EXPECT_EQ(engine.region_population(2), 1u);
  engine.fail_peer(2, /*graceful=*/true);
  h.settle(2.0);
  EXPECT_EQ(engine.region_population(2), 0u);
  engine.revive_peer(2);
  EXPECT_EQ(engine.region_population(2), 1u);
}

// ---------------------------------------------------------------------------
// Facade introspection
// ---------------------------------------------------------------------------

TEST(Engine, ExposesInstalledSchemeNames) {
  test_util::GridHarness h(test_util::grid_config(), /*start=*/false);
  PrecinctEngine& engine = h.build();
  EXPECT_STREQ(engine.retrieval_scheme_name(), "precinct");
  EXPECT_STREQ(engine.consistency_scheme_name(), "none");
}

TEST(Engine, RoutingDropWindowDeltaLandsInMetrics) {
  test_util::GridHarness h(test_util::grid_config(), /*start=*/false);
  PrecinctEngine& engine = h.build();
  engine.issue_request(0, h.catalog.key_of(3));
  h.settle();
  const core::Metrics m = engine.finalize();
  // Measurement started at zero drops, so the window delta must equal
  // the lifetime counters surfaced by routing_stats().
  EXPECT_EQ(m.routing.drops_void, engine.routing_stats().drops_void);
  EXPECT_EQ(m.routing.drops_ttl, engine.routing_stats().drops_ttl);
}

}  // namespace
