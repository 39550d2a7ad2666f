// Determinism fingerprint: runs a spread of fixed-seed scenarios and
// prints every Metrics field with full precision (via
// core::fingerprint, the same rendering the scenario fuzzer compares
// through).  Diff the output of two builds to prove a change is
// metrics-identical (the bar every performance PR must clear — see
// DESIGN.md §7).
//
// All fields except the last are workload-observable and must match
// byte-for-byte across any behaviour-preserving change.
// `events_executed` is a scheduling-efficiency diagnostic: a change that
// batches or elides simulator events (e.g. fan-out batching) legitimately
// lowers it without touching protocol behaviour.
//
// Usage: metrics_fingerprint [--world K] [> fingerprint.txt]
//
// With --world K every config runs as ONE world cut into region-column
// domains on K worker shards (WorldShardedScenario,
// core::world_fingerprint rendering — DESIGN.md §11, §13): real radio
// frames cross the cut under a lookahead derived from the MAC/propagation
// timing.  The output must be byte-identical for every K, including K=1 —
// diff K=1 against K in {2,4,8} to gate the parallel executor's
// determinism contract.
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "core/config_io.hpp"
#include "core/scenario.hpp"
#include "core/world_scenario.hpp"

namespace {

using namespace precinct;
using core::Metrics;
using core::PrecinctConfig;

// 0 = off; > 0 = world-sharded mode (one world, region-column domains).
std::uint32_t g_world = 0;

void dump(const char* name, const Metrics& m) {
  std::printf("[%s]\n%s\n", name, core::fingerprint(m).c_str());
}

/// World mode: run the config as ONE world cut into region-column
/// domains, trimmed so the world run stays affordable (dynamic_regions is
/// a global reconfiguration and cannot be sharded, so churn configs keep
/// their kills/revives but drop the rebalancer).
void run_config(const char* name, const PrecinctConfig& config) {
  if (g_world == 0) {
    dump(name, core::run_scenario(config));
    return;
  }
  PrecinctConfig c = config;
  c.shards = g_world;
  c.dynamic_regions = false;
  if (c.warmup_s > 30.0) c.warmup_s = 30.0;
  if (c.measure_s > 90.0) c.measure_s = 90.0;
  std::printf("[%s]\n%s\n", name,
              core::world_fingerprint(core::run_world_scenario(c)).c_str());
}

PrecinctConfig base(std::uint64_t seed) {
  PrecinctConfig c;
  c.n_nodes = 60;
  c.warmup_s = 60;
  c.measure_s = 240;
  c.seed = seed;
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--world") == 0 && i + 1 < argc) {
      try {
        g_world = core::parse_integer<std::uint32_t>(argv[++i], "--world");
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 2;
      }
    } else {
      std::fprintf(stderr, "usage: %s [--world K]\n", argv[0]);
      return 2;
    }
  }
  {
    // Default PReCinCt stack under mobility.
    run_config("precinct_mobile_s7", base(7));
  }
  {
    // Flooding baseline: the heaviest broadcast fan-out workload.
    auto c = base(11);
    c.retrieval = core::RetrievalKind::kFlooding;
    c.measure_s = 150;
    run_config("flooding_s11", c);
  }
  {
    // Expanding-ring baseline (repeated scoped floods).
    auto c = base(13);
    c.retrieval = core::RetrievalKind::kExpandingRing;
    c.measure_s = 150;
    run_config("ring_s13", c);
  }
  {
    // Consistency: pushes, polls, acks over geographic routing.
    auto c = base(17);
    c.updates_enabled = true;
    c.consistency = consistency::Mode::kPushAdaptivePull;
    c.mean_update_interval_s = 45.0;
    run_config("adaptive_pull_s17", c);
  }
  {
    // Plain-Push: network-wide invalidation floods.
    auto c = base(19);
    c.updates_enabled = true;
    c.consistency = consistency::Mode::kPlainPush;
    c.mean_update_interval_s = 45.0;
    c.measure_s = 150;
    run_config("plain_push_s19", c);
  }
  {
    // Churn + dynamic regions: custody handoffs, kills, revives,
    // region-table dissemination floods.
    auto c = base(23);
    c.dynamic_regions = true;
    c.crash_rate_per_s = 0.02;
    c.join_rate_per_s = 0.02;
    c.graceful_fraction = 0.5;
    run_config("churn_dynamic_s23", c);
  }
  {
    // Larger mobile network: 160 nodes on a 4x4 region grid.
    auto c = base(29);
    c.n_nodes = 160;
    c.area = {{0, 0}, {1800, 1800}};
    c.regions_x = c.regions_y = 4;
    c.measure_s = 120;
    run_config("large_grid_s29", c);
  }
  {
    // Lossy channel (memoryless): heavy uniform frame erasure with the
    // full retry/backoff recovery path exercised.
    auto c = base(31);
    c.wireless.channel.model = "bernoulli";
    c.wireless.channel.loss_p = 0.2;
    c.request_retries = 3;
    c.measure_s = 150;
    run_config("bernoulli_loss_s31", c);
  }
  {
    // Lossy channel (bursty): Gilbert–Elliott good/bad state flips, so
    // losses cluster and retries collide with the burst.
    auto c = base(37);
    c.wireless.channel.model = "gilbert-elliott";
    c.request_retries = 2;
    c.measure_s = 150;
    run_config("gilbert_elliott_s37", c);
  }
  {
    // Beacon-fed GPSR: neighbor knowledge from expiring position tables
    // (refreshed by beacons and by overheard frames), not the radio's
    // ground truth.
    auto c = base(41);
    c.use_beacons = true;
    run_config("beacons_s41", c);
  }
  {
    // Static world under churn and loss: no node moves, so neighbor sets
    // change only when a kill or a revive bumps the topology epoch.
    auto c = base(43);
    c.mobile = false;
    c.wireless.channel.model = "bernoulli";
    c.wireless.channel.loss_p = 0.05;
    c.request_retries = 2;
    c.crash_rate_per_s = 0.02;
    c.join_rate_per_s = 0.02;
    c.graceful_fraction = 0.5;
    run_config("static_churn_s43", c);
  }
  {
    // Pull-Every-time: every cached serve polls the home region first.
    auto c = base(47);
    c.updates_enabled = true;
    c.consistency = consistency::Mode::kPullEveryTime;
    c.mean_update_interval_s = 45.0;
    run_config("pull_every_time_s47", c);
  }
  {
    // Expanding ring under Plain-Push on a lossy channel: the retry
    // budget backs each invalidation flood with acknowledged pushes.
    auto c = base(53);
    c.retrieval = core::RetrievalKind::kExpandingRing;
    c.updates_enabled = true;
    c.consistency = consistency::Mode::kPlainPush;
    c.mean_update_interval_s = 45.0;
    c.wireless.channel.model = "bernoulli";
    c.wireless.channel.loss_p = 0.1;
    c.request_retries = 2;
    c.measure_s = 150;
    run_config("ring_plain_push_loss_s53", c);
  }
  return 0;
}
