// Scenario packs (DESIGN.md §15): the pinned scenarios under
// examples/packs/ — the paper's comparisons (GD-LD, the consistency
// schemes, the flooding and expanding-ring baselines, lossy channels,
// churn) and the structured workloads it never reached.  Every pack's
// [reduced] golden section is re-run and diffed here (the [full] section
// is CI's golden gate), the world-sharded executor must reproduce every
// pack it accepts byte-identically for K in {1, 2, 4}, and every pack
// must survive a check=all audit.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config_io.hpp"
#include "core/pack.hpp"
#include "core/scenario.hpp"
#include "core/world_scenario.hpp"
#include "support/kv_file.hpp"

namespace {

using namespace precinct;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ScenarioPack, CatalogListsEveryShippedPack) {
  const std::vector<std::string> names = core::list_packs();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* want :
       {"adaptive_pull_s17", "beacons_s41", "bernoulli_loss_s31",
        "churn_dynamic_s23", "commuter-daynight", "flash-crowd",
        "flooding_s11", "gilbert_elliott_s37", "large_grid_s29",
        "manhattan-rush", "plain_push_s19", "precinct_mobile_s7",
        "pull_every_time_s47", "ring_plain_push_loss_s53", "ring_s13",
        "roadside-mix", "static_churn_s43"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end())
        << "pack '" << want << "' missing from " << core::pack_dir();
  }
}

TEST(ScenarioPack, EveryGoldenHasItsConfig) {
  // A .golden whose .conf was renamed or deleted pins nothing: no loop
  // over list_packs() ever reads it.
  namespace fs = std::filesystem;
  std::size_t goldens = 0;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(core::pack_dir())) {
    fs::path path = entry.path();
    if (path.extension() != ".golden") continue;
    ++goldens;
    EXPECT_TRUE(fs::is_regular_file(path.replace_extension(".conf")))
        << entry.path() << " has no matching .conf";
  }
  EXPECT_EQ(goldens, core::list_packs().size());
}

TEST(ScenarioPack, UnknownNamePrintsTheCatalog) {
  try {
    (void)core::load_pack("no-such-pack");
    FAIL() << "load_pack accepted an unknown name";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    // A typo must list what IS available, not just fail.
    EXPECT_NE(what.find("no-such-pack"), std::string::npos) << what;
    EXPECT_NE(what.find("manhattan-rush"), std::string::npos) << what;
  }
}

TEST(ScenarioPack, ConfigsValidateAndDeclareTheirWorkload) {
  // Spot-check that each pack actually configures the workload its name
  // promises (load_pack already ran validate()).
  EXPECT_EQ(core::load_pack("manhattan-rush").config.mobility_model,
            "manhattan");
  EXPECT_EQ(core::load_pack("commuter-daynight").config.mobility_model,
            "commuter");
  const core::ScenarioPack mix = core::load_pack("roadside-mix");
  ASSERT_EQ(mix.config.node_classes.size(), 2u);
  EXPECT_TRUE(mix.config.has_fixed_nodes());
  const core::ScenarioPack flash = core::load_pack("flash-crowd");
  EXPECT_GE(flash.config.request_rate_multiplier, 100.0);
  EXPECT_EQ(flash.config.check, "all");
  EXPECT_EQ(core::load_pack("flooding_s11").config.retrieval,
            core::RetrievalKind::kFlooding);
  EXPECT_EQ(core::load_pack("pull_every_time_s47").config.consistency,
            consistency::Mode::kPullEveryTime);
  EXPECT_TRUE(core::load_pack("churn_dynamic_s23").config.dynamic_regions);
  EXPECT_FALSE(core::load_pack("static_churn_s43").config.mobile);
}

TEST(ScenarioPack, ReducedForTestOnlyTrimsTheWindows) {
  for (const std::string& name : core::list_packs()) {
    const core::ScenarioPack pack = core::load_pack(name);
    core::PrecinctConfig reduced = core::reduced_for_test(pack.config);
    EXPECT_LE(reduced.warmup_s, 10.0) << name;
    EXPECT_LE(reduced.measure_s, 30.0) << name;
    // Everything but the windows is the configured workload.
    reduced.warmup_s = pack.config.warmup_s;
    reduced.measure_s = pack.config.measure_s;
    EXPECT_EQ(core::config_to_string(reduced),
              core::config_to_string(pack.config))
        << name << ": reduced_for_test changed more than the windows";
  }
}

TEST(ScenarioPack, ReducedGoldenSectionsMatch) {
  for (const std::string& name : core::list_packs()) {
    const core::ScenarioPack pack = core::load_pack(name);
    const core::PackGolden golden =
        core::parse_golden(read_file(pack.golden_path));
    const std::string actual =
        core::fingerprint(core::run_scenario(core::reduced_for_test(pack.config)));
    EXPECT_EQ(actual, golden.reduced)
        << "pack '" << name << "' drifted from its [reduced] golden; "
        << "re-baseline deliberately with precinct_sim --pack " << name
        << " --write-golden";
  }
}

TEST(ScenarioPack, GoldenFilesAreRenderFixedPoints) {
  // parse -> render must reproduce the checked-in bytes exactly, so a
  // hand-edited golden that still parses cannot silently drift from what
  // --write-golden would regenerate.
  for (const std::string& name : core::list_packs()) {
    const core::ScenarioPack pack = core::load_pack(name);
    const std::string text = read_file(pack.golden_path);
    EXPECT_EQ(core::render_golden(name, core::parse_golden(text)), text)
        << name;
  }
}

TEST(ScenarioPack, ParseGoldenRejectsMalformedFiles) {
  EXPECT_THROW((void)core::parse_golden(""), std::invalid_argument);
  EXPECT_THROW((void)core::parse_golden("[full]\na=1\n"),
               std::invalid_argument);  // missing [reduced]
  EXPECT_THROW((void)core::parse_golden("a=1\n[full]\n[reduced]\n"),
               std::invalid_argument);  // content before the first section
}

TEST(ScenarioPack, WorldShardInvariantAtReducedScale) {
  // The K-invariance contract (DESIGN.md §13) extends to every pack world
  // mode accepts: structured mobility, heterogeneous fleets, the flash
  // crowd, lossy channels and churn all reproduce byte-identically however
  // the world is cut.  A refused pack must stay refused, so its skip
  // cannot outlive the reason for it.
  for (const std::string& name : core::list_packs()) {
    const core::PrecinctConfig base =
        core::reduced_for_test(core::load_pack(name).config);
    if (name == "churn_dynamic_s23") {
      // Skipped by name: dynamic_regions reconfigures the region table
      // globally, which a region-column cut cannot carry.
      EXPECT_THROW((void)core::run_world_scenario(base), std::invalid_argument)
          << "pack '" << name << "' is listed as refused by world mode";
      continue;
    }
    std::string first;
    for (const std::uint32_t k : {1u, 2u, 4u}) {
      core::PrecinctConfig c = base;
      c.shards = k;
      const std::string fp =
          core::world_fingerprint(core::run_world_scenario(c));
      if (k == 1u) {
        first = fp;
      } else {
        EXPECT_EQ(fp, first)
            << "pack '" << name << "' diverged at world shards=" << k;
      }
    }
  }
}

TEST(ScenarioPack, EveryPackSurvivesCheckAll) {
  // flash-crowd bakes check=all into its config; force it for the rest so
  // each pack's reduced run is a full invariant audit.
  for (const std::string& name : core::list_packs()) {
    core::PrecinctConfig c =
        core::reduced_for_test(core::load_pack(name).config);
    c.check = "all";
    EXPECT_NO_THROW((void)core::run_scenario(c)) << name;
  }
}

}  // namespace
