// Configuration-surface tests: table-driven validate() rejections (with
// error-message assertions), the config_io write -> read -> write fixed
// point over every scenario pack plus fuzzer-drawn ones, the annotated
// example file, and precinct_sim's flags applied as keys.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/scenario_fuzz.hpp"
#include "core/config_io.hpp"
#include "core/pack.hpp"
#include "support/kv_file.hpp"
#include "test_util.hpp"

namespace {

using namespace precinct;
using core::PrecinctConfig;

// ---------------------------------------------------------------------------
// validate() rejection table
// ---------------------------------------------------------------------------

struct RejectionCase {
  const char* name;
  std::function<void(PrecinctConfig&)> corrupt;
  const char* message_fragment;
};

const std::vector<RejectionCase>& rejection_cases() {
  static const std::vector<RejectionCase> cases = {
      {"zero nodes", [](PrecinctConfig& c) { c.n_nodes = 0; },
       "n_nodes must be > 0"},
      {"unknown channel model",
       [](PrecinctConfig& c) { c.wireless.channel.model = "quantum"; },
       "unknown channel model 'quantum'"},
      {"negative request retries",
       [](PrecinctConfig& c) { c.request_retries = -1; },
       "request retries must be >= 0"},
      {"negative push retries", [](PrecinctConfig& c) { c.push_retries = -2; },
       "push retries must be >= 0"},
      {"loss probability out of range",
       [](PrecinctConfig& c) {
         c.wireless.channel.model = "bernoulli";
         c.wireless.channel.loss_p = 1.5;
       },
       "loss probability must be in [0, 1]"},
      {"unknown check category", [](PrecinctConfig& c) { c.check = "cachez"; },
       "unknown category 'cachez'"},
      {"unknown token in check list",
       [](PrecinctConfig& c) { c.check = "net,turbo"; },
       "unknown category 'turbo'"},
      {"zero check stride", [](PrecinctConfig& c) { c.check_stride = 0; },
       "check stride must be >= 1"},
      {"baseline retrieval with polling consistency",
       [](PrecinctConfig& c) {
         c.retrieval = core::RetrievalKind::kFlooding;
         c.consistency = consistency::Mode::kPushAdaptivePull;
         c.updates_enabled = true;
       },
       "has no region-based lookup"},
      {"replicas exceed region count",
       [](PrecinctConfig& c) {
         c.regions_x = c.regions_y = 1;
         c.replica_count = 1;
       },
       "replica_count needs at least replica_count+1 regions"},
      {"replica count at the top of its range",
       [](PrecinctConfig& c) {
         c.replica_count = std::numeric_limits<std::size_t>::max();
       },
       "replica_count needs at least replica_count+1 regions"},
      {"unknown mobility model",
       [](PrecinctConfig& c) { c.mobility_model = "teleport"; },
       "unknown mobility model 'teleport'"},
      {"zero street spacing",
       [](PrecinctConfig& c) { c.street_spacing_m = 0.0; },
       "street spacing must be > 0"},
      {"turn probability out of range",
       [](PrecinctConfig& c) { c.turn_probability = 1.5; },
       "turn probability must be in [0, 1]"},
      {"street grid does not fit the area",
       [](PrecinctConfig& c) {
         c.mobility_model = "manhattan";
         c.street_spacing_m = 5000.0;
       },
       "street spacing too wide"},
      {"zero commuter period",
       [](PrecinctConfig& c) { c.commuter_period_s = 0.0; },
       "commuter period must be > 0"},
      {"zero commuter hubs",
       [](PrecinctConfig& c) { c.commuter_hubs = 0; },
       "commuter fleet needs at least one hub"},
      {"class name with illegal characters",
       [](PrecinctConfig& c) {
         core::NodeClassConfig cls;
         cls.name = "bad-name";
         cls.count = c.n_nodes;
         c.node_classes = {cls};
       },
       "must use only [A-Za-z0-9_]"},
      {"classes out of name order",
       [](PrecinctConfig& c) {
         core::NodeClassConfig b;
         b.name = "b";
         b.count = 1;
         core::NodeClassConfig a;
         a.name = "a";
         a.count = c.n_nodes - 1;
         c.node_classes = {b, a};
       },
       "must be sorted by name"},
      {"zero-count class",
       [](PrecinctConfig& c) {
         core::NodeClassConfig cls;
         cls.name = "ghost";
         cls.count = 0;
         c.node_classes = {cls};
       },
       "must have count > 0"},
      {"class counts do not cover the fleet",
       [](PrecinctConfig& c) {
         core::NodeClassConfig cls;
         cls.name = "some";
         cls.count = c.n_nodes + 3;
         c.node_classes = {cls};
       },
       "must sum to n_nodes"},
      {"negative class speed",
       [](PrecinctConfig& c) {
         core::NodeClassConfig cls;
         cls.name = "rev";
         cls.count = c.n_nodes;
         cls.speed = -1.0;
         c.node_classes = {cls};
       },
       "speed must be >= 0"},
      {"negative request rate multiplier",
       [](PrecinctConfig& c) { c.request_rate_multiplier = -2.0; },
       "request rate multiplier must be > 0"},
      {"zero request rate multiplier",
       [](PrecinctConfig& c) { c.request_rate_multiplier = 0.0; },
       "request rate multiplier must be > 0"},
      {"zipf drift without a step",
       [](PrecinctConfig& c) {
         c.zipf_drift_per_s = 0.01;
         c.zipf_drift_step_s = 0.0;
       },
       "zipf drift step must be > 0"},
      // Configs built in code skip the file parser's non-finite check, so
      // every range rule must also fail a NaN.
      {"NaN radio range",
       [](PrecinctConfig& c) {
         c.wireless.range_m = std::numeric_limits<double>::quiet_NaN();
       },
       "radio range must be > 0"},
      {"NaN cache fraction",
       [](PrecinctConfig& c) {
         c.cache_fraction = std::numeric_limits<double>::quiet_NaN();
       },
       "cache fraction must be in [0, 1]"},
  };
  return cases;
}

TEST(ConfigValidate, RejectsBadConfigsWithSpecificMessages) {
  for (const RejectionCase& rc : rejection_cases()) {
    PrecinctConfig c;
    rc.corrupt(c);
    try {
      c.validate();
      FAIL() << rc.name << ": validate() accepted a bad config";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(rc.message_fragment),
                std::string::npos)
          << rc.name << ": message was '" << e.what() << "', expected '"
          << rc.message_fragment << "'";
    }
  }
}

TEST(ConfigValidate, AcceptsEveryCheckCategoryAndCombinations) {
  for (const char* spec :
       {"", "all", "net", "cache", "custody", "pending", "consistency",
        "energy", "net,cache,energy", "all,custody"}) {
    PrecinctConfig c;
    c.check = spec;
    EXPECT_NO_THROW(c.validate()) << "check=" << spec;
  }
}

// ---------------------------------------------------------------------------
// config_io round trip
// ---------------------------------------------------------------------------

/// write -> read -> write must be a fixed point: the first rendering and
/// the rendering of its re-parse agree byte-for-byte.
void expect_roundtrip(const PrecinctConfig& c, const std::string& label) {
  const std::string first = core::config_to_string(c);
  PrecinctConfig reread;
  ASSERT_NO_THROW(reread = core::config_from_kv(
                      support::KvFile::parse(first)))
      << label << ":\n" << first;
  const std::string second = core::config_to_string(reread);
  EXPECT_EQ(first, second) << label;
  EXPECT_NO_THROW(reread.validate()) << label;
}

TEST(ConfigIo, FingerprintConfigsRoundTrip) {
  // Every pinned scenario is a pack file (examples/packs/*.conf).
  const std::vector<std::string> names = core::list_packs();
  ASSERT_FALSE(names.empty()) << core::pack_dir();
  for (const std::string& name : names) {
    expect_roundtrip(core::load_pack(name).config, name);
  }
}

TEST(ConfigIo, ExampleFileLoadsAndNamesEveryKey) {
  // examples/scenario.conf.example is the annotated key reference: it must
  // load and validate, and name (set or commented out) every key a
  // default config writes.
  const std::string path =
      std::string(PRECINCT_EXAMPLES_DIR) + "/scenario.conf.example";
  PrecinctConfig c;
  ASSERT_NO_THROW(c = core::config_from_file(path)) << path;
  EXPECT_NO_THROW(c.validate());

  std::ifstream in(path);
  std::set<std::string> named;
  for (std::string line; std::getline(in, line);) {
    const std::size_t start = line.find_first_not_of("# ");
    const std::size_t eq = line.find(" =", start);
    if (start != std::string::npos && eq != std::string::npos) {
      named.insert(line.substr(start, eq - start));
    }
  }
  for (const auto& [key, value] : core::config_to_kv(PrecinctConfig{})) {
    EXPECT_EQ(named.count(key), 1u) << "example does not name '" << key << "'";
  }
}

TEST(ConfigIo, FuzzDrawnConfigsRoundTrip) {
  for (const std::uint64_t seed : {42u, 43u, 44u}) {
    const check::FuzzCase fc = check::draw_scenario(seed);
    expect_roundtrip(fc.config, "fuzz case " + std::to_string(seed));
  }
}

TEST(ConfigIo, BlackoutWindowsRoundTrip) {
  PrecinctConfig c = test_util::grid_config();
  c.wireless.channel.model = "scripted";
  c.wireless.channel.blackouts.push_back({3, 25.0, 45.5});
  c.wireless.channel.blackouts.push_back({11, 30.25, 60.0});
  c.check = "net,custody";
  c.check_stride = 7;
  expect_roundtrip(c, "scripted blackouts");
}

TEST(ConfigIo, RoundTrippedConfigRunsByteIdentically) {
  PrecinctConfig c = test_util::small_scenario();
  c.measure_s = 30.0;
  c.wireless.channel.model = "bernoulli";
  c.wireless.channel.loss_p = 0.1;
  c.request_retries = 2;
  std::vector<std::pair<std::string, PrecinctConfig>> cases{{"lossy", c}};
  // Every field the fuzzer draws must survive its repro file, or the
  // documented `precinct_sim --config <repro>` replays another scenario.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    PrecinctConfig drawn = check::draw_scenario(seed).config;
    drawn.check.clear();  // observe-only, and the slowest part under ASan
    cases.emplace_back("fuzz case " + std::to_string(seed), drawn);
  }
  for (const auto& [name, config] : cases) {
    const PrecinctConfig reread = core::config_from_kv(
        support::KvFile::parse(core::config_to_string(config)));
    EXPECT_EQ(core::fingerprint(core::run_scenario(config)),
              core::fingerprint(core::run_scenario(reread)))
        << name;
  }
}

TEST(ConfigIo, FlagsOverrideOnlyTheirKeys) {
  // Seeds past 2^53: each must run as written, and a --seed flag must
  // set exactly its value (a trip through double merges all three).
  for (const char* seed : {"1152921504606846976", "1152921504606846977",
                           "1152921504606846978"}) {
    const PrecinctConfig file = core::config_from_kv(
        support::KvFile::parse(std::string("seed = ") + seed + "\n"));
    std::vector<std::string> none;
    EXPECT_EQ(std::to_string(core::config_from_flags(none, file).seed), seed);
    std::vector<std::string> flag{"--seed", seed};
    EXPECT_EQ(std::to_string(core::config_from_flags(flag, {}).seed), seed);
  }

  // An explicit `updates = false` stays off under a consistency mode
  // unless --updates turns it on.
  const PrecinctConfig quiet = core::config_from_kv(support::KvFile::parse(
      "consistency = push-adaptive-pull\nupdates = false\n"));
  ASSERT_FALSE(quiet.updates_enabled);
  std::vector<std::string> none;
  EXPECT_FALSE(core::config_from_flags(none, quiet).updates_enabled);
  std::vector<std::string> updates{"--updates"};
  EXPECT_TRUE(core::config_from_flags(updates, quiet).updates_enabled);

  // Flags are keys with `-` for `_`; everything else is left in place.
  std::vector<std::string> args{"--seeds", "4",          "--speed-max",
                                "3.5",     "--csv",      "--dynamic-regions",
                                "--nodes", "50"};
  const PrecinctConfig c = core::config_from_flags(args, quiet);
  EXPECT_EQ(c.v_max, 3.5);
  EXPECT_EQ(c.n_nodes, 50u);
  EXPECT_TRUE(c.dynamic_regions);
  EXPECT_EQ(c.consistency, consistency::Mode::kPushAdaptivePull);
  EXPECT_EQ(args, (std::vector<std::string>{"--seeds", "4", "--csv"}));

  std::vector<std::string> dangling{"--nodes"};
  EXPECT_THROW((void)core::config_from_flags(dangling, {}),
               std::invalid_argument);
}

TEST(ConfigIo, ShardingKnobsRoundTrip) {
  PrecinctConfig c;
  c.shards = 4;
  expect_roundtrip(c, "world-sharded run");

  const PrecinctConfig reread = core::config_from_kv(
      support::KvFile::parse(core::config_to_string(c)));
  EXPECT_EQ(reread.shards, 4u);
}

TEST(ConfigValidate, RejectsBadShardingKnobs) {
  PrecinctConfig c;
  c.shards = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(ConfigValidate, WorldShardingRejectsTiledKnobs) {
  // World sharding is the only sharding mode.  The tiled mode's keys
  // must fail loudly, with or without shards, instead of loading and
  // then being ignored by a plain single-world run; and the global
  // region rebalancer must stay quiet.
  for (const char* key : {"tiles", "gateway_latency", "gateway_interval"}) {
    for (const std::string prefix : {"", "shards = 2\n"}) {
      try {
        (void)core::config_from_kv(
            support::KvFile::parse(prefix + key + " = 2\n"));
        ADD_FAILURE() << key << " was accepted";
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("unknown key"), std::string::npos) << what;
        EXPECT_NE(what.find(key), std::string::npos) << what;
      }
    }
  }
  {
    PrecinctConfig c;
    c.shards = 2;
    c.dynamic_regions = true;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    PrecinctConfig c;  // quiet knobs: a world-sharded run validates
    c.shards = 4;
    EXPECT_NO_THROW(c.validate());
  }
}

TEST(ConfigIo, RealtimePacingKeysAreUnknown) {
  // Fleets advance windows as fast as barriers close; there is no
  // wall-clock pacing.  Its old keys must fail loudly, naming the key,
  // instead of loading and then being ignored.
  const struct {
    const char* key;
    const char* value;
  } removed[] = {{"transport_pace", "realtime"},
                 {"transport_pace", "asap"},
                 {"transport_speedup", "2"}};
  for (const auto& [key, value] : removed) {
    const std::string text = std::string(key) + " = " + value + "\n";
    try {
      (void)core::config_from_kv(support::KvFile::parse(text));
      ADD_FAILURE() << text << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("unknown key '" + std::string(key) + "'"),
                std::string::npos)
          << what;
    }
  }
}

TEST(ConfigIo, WorldShardedConfigIsAFixedPoint) {
  // write -> read -> write must reproduce the exact same text (the
  // round-trip fixed point), with world sharding selected purely by
  // shards > 1.
  PrecinctConfig c;
  c.shards = 4;
  c.crash_rate_per_s = 0.01;
  c.join_rate_per_s = 0.01;
  expect_roundtrip(c, "world-sharded run");

  const std::string once = core::config_to_string(c);
  const PrecinctConfig reread =
      core::config_from_kv(support::KvFile::parse(once));
  EXPECT_EQ(reread.shards, 4u);
  EXPECT_EQ(core::config_to_string(reread), once);
}

TEST(ConfigIo, ScenarioPackKnobsRoundTrip) {
  // Every key the scenario packs introduced (DESIGN.md §15): structured
  // mobility, node classes, flash-crowd workload shaping.
  PrecinctConfig c;
  c.n_nodes = 24;
  c.mobility_model = "manhattan";
  c.street_spacing_m = 150.0;
  c.turn_probability = 0.3;
  c.commuter_period_s = 120.0;
  c.commuter_hubs = 4;
  c.request_rate_multiplier = 150.0;
  c.zipf_drift_per_s = 0.02;
  c.zipf_drift_step_s = 5.0;
  core::NodeClassConfig phone;
  phone.name = "phone";
  phone.count = 18;
  phone.speed = 4.0;
  core::NodeClassConfig rsu;
  rsu.name = "rsu";
  rsu.count = 6;
  rsu.cache_kb = 96.0;
  rsu.fixed = true;
  c.node_classes = {phone, rsu};
  expect_roundtrip(c, "scenario pack knobs");

  const PrecinctConfig reread =
      core::config_from_kv(support::KvFile::parse(core::config_to_string(c)));
  EXPECT_EQ(reread.mobility_model, "manhattan");
  EXPECT_DOUBLE_EQ(reread.street_spacing_m, 150.0);
  EXPECT_DOUBLE_EQ(reread.turn_probability, 0.3);
  EXPECT_EQ(reread.commuter_hubs, 4u);
  EXPECT_DOUBLE_EQ(reread.request_rate_multiplier, 150.0);
  EXPECT_DOUBLE_EQ(reread.zipf_drift_per_s, 0.02);
  EXPECT_DOUBLE_EQ(reread.zipf_drift_step_s, 5.0);
  ASSERT_EQ(reread.node_classes.size(), 2u);
  EXPECT_EQ(reread.node_classes[0].name, "phone");
  EXPECT_EQ(reread.node_classes[0].count, 18u);
  EXPECT_DOUBLE_EQ(reread.node_classes[0].speed, 4.0);
  EXPECT_EQ(reread.node_classes[1].name, "rsu");
  EXPECT_TRUE(reread.node_classes[1].fixed);
  EXPECT_DOUBLE_EQ(reread.node_classes[1].cache_kb, 96.0);
  EXPECT_TRUE(reread.has_fixed_nodes());
  EXPECT_EQ(reread.class_of(0), 0u);
  EXPECT_EQ(reread.class_of(17), 0u);
  EXPECT_EQ(reread.class_of(18), 1u);
  EXPECT_EQ(reread.class_of(23), 1u);
}

TEST(ConfigIo, ClassCountsAloneDefineTheFleetSize) {
  // A classes-only config needs no `nodes` key: the fleet size is the
  // class-count sum, and classes land sorted by name.
  const PrecinctConfig c = core::config_from_kv(support::KvFile::parse(
      "class.phone.count = 5\n"
      "class.rsu.count = 3\n"
      "class.rsu.fixed = true\n"));
  EXPECT_EQ(c.n_nodes, 8u);
  ASSERT_EQ(c.node_classes.size(), 2u);
  EXPECT_EQ(c.node_classes[0].name, "phone");
  EXPECT_EQ(c.node_classes[1].name, "rsu");
  EXPECT_NO_THROW(c.validate());
}

TEST(ConfigIo, MalformedClassKeysThrow) {
  for (const char* text : {
           "class.x = 3\n",          // missing attribute
           "class.x.bogus = 1\n",    // unknown attribute
           "class.x.count = -4\n",   // counts are unsigned
           "class.x.count = many\n"  // non-numeric
       }) {
    EXPECT_THROW((void)core::config_from_kv(support::KvFile::parse(text)),
                 std::invalid_argument)
        << text;
  }
}

TEST(ConfigIo, IntegerKeysParseExactlyIntoTheirFieldType) {
  // Every integer key reads its value exactly into the field's own type,
  // and anything else fails naming the key: a cast from a double would
  // turn nodes = -1 into SIZE_MAX and 40.9 into 40.
  const struct {
    const char* key;
    const char* value;
  } rejected[] = {
      {"nodes", "-1"},
      {"nodes", "40.9"},
      {"nodes", "4e1"},
      {"items", "-3"},
      {"regions", "2.5"},
      {"regions", "4294967296"},
      {"commuter_hubs", "nan"},
      {"prefetch", "+2"},
      {"push_retries", "2147483648"},
      {"push_retries", "1.5"},
      {"replicas", "-1"},
      {"retries", "1e9"},
      {"hotspot_shift", "inf"},
      {"shards", "-1"},
      {"transport_base_port", "4295014696"},
      {"check_stride", "7.0"},
      {"seed", "18446744073709551616"},
      {"class.x.count", "2.5"},
      {"blackout", "-1:0:10"},
  };
  for (const auto& r : rejected) {
    const std::string text = std::string(r.key) + " = " + r.value + "\n";
    try {
      (void)core::config_from_kv(support::KvFile::parse(text));
      ADD_FAILURE() << text << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("'") + r.key + "'"), std::string::npos)
          << text << what;
    }
  }

  // Plain integers read exactly, up to each type's extremes, with signs
  // where the field is signed.
  const PrecinctConfig c = core::config_from_kv(
      support::KvFile::parse("nodes = 40\n"
                             "regions = 4294967295\n"
                             "retries = -1\n"
                             "push_retries = -2147483648\n"
                             "transport_base_port = 47401\n"
                             "seed = 18446744073709551615\n"));
  EXPECT_EQ(c.n_nodes, 40u);
  EXPECT_EQ(c.regions_x, 4294967295u);
  EXPECT_EQ(c.regions_y, 4294967295u);
  EXPECT_EQ(c.request_retries, -1);
  EXPECT_EQ(c.push_retries, std::numeric_limits<int>::min());
  EXPECT_EQ(c.transport_base_port, 47401u);
  EXPECT_EQ(c.seed, std::numeric_limits<std::uint64_t>::max());
}

TEST(ConfigIo, ItemSizeKeysRoundTripAndReject) {
  // The catalog's item-size range has keys of its own, so a config file
  // can state abl_scalability's 512-B worlds.
  const PrecinctConfig c = core::config_from_kv(support::KvFile::parse(
      "items = 200\nmin_item_bytes = 512\nmax_item_bytes = 512\n"));
  EXPECT_EQ(c.catalog.n_items, 200u);
  EXPECT_EQ(c.catalog.min_item_bytes, 512u);
  EXPECT_EQ(c.catalog.max_item_bytes, 512u);
  expect_roundtrip(c, "512-B items");
  const std::string text = core::config_to_string(c);
  EXPECT_NE(text.find("min_item_bytes = 512\n"), std::string::npos) << text;
  EXPECT_NE(text.find("max_item_bytes = 512\n"), std::string::npos) << text;
  // Defaults are written too, so a saved config pins its sizes.
  const std::string defaults = core::config_to_string(PrecinctConfig{});
  EXPECT_NE(defaults.find("min_item_bytes = 1024\n"), std::string::npos);
  EXPECT_NE(defaults.find("max_item_bytes = 10240\n"), std::string::npos);

  // Values that are not exact integers of the field's type fail naming
  // the key.
  const struct {
    const char* key;
    const char* value;
  } malformed[] = {
      {"min_item_bytes", "-1"},
      {"min_item_bytes", "1.5"},
      {"max_item_bytes", "nan"},
      {"max_item_bytes", "18446744073709551616"},
  };
  for (const auto& r : malformed) {
    const std::string line = std::string(r.key) + " = " + r.value + "\n";
    try {
      (void)core::config_from_kv(support::KvFile::parse(line));
      ADD_FAILURE() << line << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + r.key + "'"),
                std::string::npos)
          << line << e.what();
    }
  }
  // Well-formed but empty or inverted ranges parse, and validate() refuses
  // them.
  for (const char* range : {"min_item_bytes = 0\n",
                            "min_item_bytes = 600\nmax_item_bytes = 599\n"}) {
    const PrecinctConfig bad =
        core::config_from_kv(support::KvFile::parse(range));
    try {
      bad.validate();
      ADD_FAILURE() << range << " validated";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("bad catalog item size range"),
                std::string::npos)
          << range << e.what();
    }
  }
}

TEST(ConfigIo, NonFiniteNumbersThrowNamingTheKey) {
  // std::stod reads nan and the infinities, which no key means: a NaN
  // range used to pass validate() and crash the run.
  const struct {
    const char* key;
    const char* value;
  } rejected[] = {
      {"range", "nan"},
      {"cache", "inf"},
      {"speed_max", "-inf"},
  };
  for (const auto& r : rejected) {
    const std::string text = std::string(r.key) + " = " + r.value + "\n";
    try {
      (void)core::config_from_kv(support::KvFile::parse(text));
      ADD_FAILURE() << text << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("'") + r.key + "'"), std::string::npos)
          << text << what;
    }
  }
}

TEST(ConfigIo, UnwritableConfigsThrow) {
  {
    PrecinctConfig c;
    c.area = {{0.0, 0.0}, {800.0, 600.0}};  // non-square
    EXPECT_THROW((void)core::config_to_string(c), std::invalid_argument);
  }
  {
    PrecinctConfig c;
    c.regions_x = 2;
    c.regions_y = 3;
    EXPECT_THROW((void)core::config_to_string(c), std::invalid_argument);
  }
  {
    PrecinctConfig c;
    channel::Partition p;
    p.a = {{0.0, 0.0}, {400.0, 800.0}};
    p.b = {{400.0, 0.0}, {800.0, 800.0}};
    c.wireless.channel.partitions.push_back(p);
    EXPECT_THROW((void)core::config_to_string(c), std::invalid_argument);
  }
}

}  // namespace
