// Ablation: scalability.  The paper's motivation is "large-scale MP2P
// networks": scale nodes and area together (constant density, constant
// region size) and watch per-request cost.  PReCinCt's promise is that
// per-request energy stays near-flat while flooding's grows with N.
//
// Part two is the world-sharded sweep (DESIGN.md §11, §13): each world is
// ONE network cut into region-column domains, swept over shards in
// {1, 2, 4, 8}.  The worlds are a ~1k- and a ~10k-node city at the same
// constant density (~100 nodes per 1200 m square, 400 m regions), then
// the 240-node, 8-column world the speedup target is evaluated against.
// Every (world, K) point's world fingerprint is compared against K = 1
// (determinism is part of the bench, not a separate test), wall time,
// speedup and the workers that actually ran (min(K, domains, usable
// CPUs)) are recorded, and the whole sweep is written to BENCH_scale.json
// (path via PRECINCT_SCALE_OUT) together with the host context.  The
// >= 3x-on-4-cores speedup target is only *evaluated* when the process
// may run on >= 4 CPUs — a 1-core container, or a `taskset -c 0` run on
// a bigger host, records its numbers honestly instead of fabricating a
// parallelism claim.
//
// PRECINCT_BENCH_FAST=1 trims to the ~1k city and the 240-node world on
// shards {1, 2}; PRECINCT_SCALE_MAX_NODES caps the largest world
// attempted.
#include "bench_common.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>

#include "core/world_scenario.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"

int main() {
  using namespace precinct;
  namespace pb = precinct::bench;

  pb::print_header(
      "Ablation — scalability at constant density",
      "density and region size held constant; nodes and area scale "
      "together; PReCinCt vs network-wide flooding");

  struct Scale {
    std::size_t nodes;
    double side;
    std::uint32_t grid;
  };
  const std::vector<Scale> scales{
      {80, 1200.0, 3}, {180, 1800.0, 4}, {320, 2400.0, 6}};

  std::vector<core::PrecinctConfig> points;
  for (const auto scheme :
       {core::RetrievalKind::kPrecinct, core::RetrievalKind::kFlooding}) {
    for (const Scale& s : scales) {
      auto c = pb::mobile_base();
      c.retrieval = scheme;
      c.n_nodes = s.nodes;
      c.area = {{0.0, 0.0}, {s.side, s.side}};
      c.regions_x = c.regions_y = s.grid;
      c.cache_fraction = 0.0;  // compare raw retrieval cost
      c.catalog.min_item_bytes = c.catalog.max_item_bytes = 64;
      c.network_flood_ttl = 64;  // the flood must span the larger plane
      c.measure_s = pb::fast_mode() ? 150.0 : 300.0;
      points.push_back(c);
    }
  }
  const auto results = pb::run_sweep(points);

  support::Table table({"nodes", "area (m)", "PReCinCt mJ/req",
                        "Flooding mJ/req", "PReCinCt success",
                        "Flooding success"});
  const std::size_t n = scales.size();
  for (std::size_t i = 0; i < n; ++i) {
    table.add_row({std::to_string(scales[i].nodes),
                   support::Table::num(scales[i].side, 0),
                   support::Table::num(results[i].energy_per_request_mj(), 2),
                   support::Table::num(results[n + i].energy_per_request_mj(), 2),
                   support::Table::num(results[i].success_ratio(), 3),
                   support::Table::num(results[n + i].success_ratio(), 3)});
  }
  table.print(std::cout);
  std::cout << "\n";
  const double precinct_growth = results[n - 1].energy_per_request_mj() /
                                 results[0].energy_per_request_mj();
  const double flooding_growth =
      results[2 * n - 1].energy_per_request_mj() /
      results[n].energy_per_request_mj();
  pb::check(precinct_growth < flooding_growth,
            "PReCinCt per-request energy grows slower than flooding's");
  pb::check(results[n - 1].success_ratio() > 0.9,
            "PReCinCt stays reliable at 320 nodes");

  // ---- part two: world-sharded sweep --------------------------------------
  //
  // ONE world cut into region-column domains: real radio frames cross the
  // cut under the lookahead derived from the MAC and propagation timing.
  // There is no embarrassing parallelism to hide behind — every domain
  // replays the whole world's mobility and the cut carries live protocol
  // traffic.  The cities go to `points`; the 240-node world, whose sweep
  // the speedup target is evaluated against, to `world_points`.

  std::cout << "\n== World-sharded sweep — nodes vs shards ==\n\n";

  struct World {
    std::string name;
    core::PrecinctConfig config;
    bool speedup_target = false;
  };
  const auto world_base = [] {
    core::PrecinctConfig c = pb::mobile_base();
    c.catalog.n_items = 200;
    c.catalog.min_item_bytes = c.catalog.max_item_bytes = 512;
    c.warmup_s = pb::fast_mode() ? 10.0 : 20.0;
    c.measure_s = pb::fast_mode() ? 30.0 : 60.0;
    return c;
  };
  // A city of squares x squares blocks, each 1200 m with 100 nodes and
  // 3x3 regions of 400 m: one domain per region column.
  const auto city = [&](std::uint32_t squares) {
    core::PrecinctConfig c = world_base();
    c.n_nodes = 100 * static_cast<std::size_t>(squares) * squares;
    c.area = {{0.0, 0.0}, {1200.0 * squares, 1200.0 * squares}};
    c.regions_x = c.regions_y = 3 * squares;
    return c;
  };
  core::PrecinctConfig target_world = world_base();
  target_world.n_nodes = 240;
  target_world.area = {{0.0, 0.0}, {2400.0, 2400.0}};
  target_world.regions_x = target_world.regions_y = 8;  // 8 domains
  std::vector<World> worlds{{"city-1k", city(3), false},
                            {"city-10k", city(10), false},
                            {"target-240", target_world, true}};
  std::vector<std::uint32_t> shard_counts{1, 2, 4, 8};
  if (pb::fast_mode()) {
    worlds.erase(worlds.begin() + 1);  // keep city-1k and target-240
    shard_counts = {1, 2};
  }
  std::size_t max_nodes = std::numeric_limits<std::size_t>::max();
  if (const char* cap = std::getenv("PRECINCT_SCALE_MAX_NODES")) {
    max_nodes = static_cast<std::size_t>(std::atoll(cap));
  }
  std::cout << "  [no 100k-node world: every domain holds a full replica of "
               "the world, so memory grows as nodes x domains — one "
               "10k-node, 30-domain run already peaks at ~1.6 GB (DESIGN.md "
               "§13 honest limits)]\n";

  const pb::BenchContext ctx = pb::capture_bench_context();
  const std::size_t usable_cpus = support::usable_cpus();
  support::Table world_table({"world", "nodes", "domains", "shards",
                              "workers", "wall s", "events", "frames x-cut",
                              "windows", "speedup"});
  std::string points_json = "[";
  std::string world_json = "[";
  bool all_identical = true;
  double world_speedup = 0.0;      ///< target world, highest shard count
  std::uint32_t world_speedup_k = 1;
  for (const World& w : worlds) {
    if (w.config.n_nodes > max_nodes) {
      std::printf("  [skipped %s (%zu nodes): over PRECINCT_SCALE_MAX_NODES=%zu]\n",
                  w.name.c_str(), w.config.n_nodes, max_nodes);
      continue;
    }
    double wall_k1 = 0.0;
    std::string fp_k1;
    for (const std::uint32_t k : shard_counts) {
      core::PrecinctConfig ck = w.config;
      ck.shards = k;
      const auto t0 = std::chrono::steady_clock::now();
      const core::WorldShardedMetrics m = core::run_world_scenario(ck);
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      const std::string fp = core::world_fingerprint(m);
      if (k == 1) {
        wall_k1 = wall;
        fp_k1 = fp;
      } else if (fp != fp_k1) {
        all_identical = false;
      }
      const double speedup = wall > 0.0 ? wall_k1 / wall : 0.0;
      if (w.speedup_target && k >= world_speedup_k) {
        world_speedup = speedup;
        world_speedup_k = k;
      }
      world_table.add_row({w.name, std::to_string(w.config.n_nodes),
                           std::to_string(m.domains), std::to_string(k),
                           std::to_string(m.shards),
                           support::Table::num(wall, 2),
                           std::to_string(m.aggregate.events_executed),
                           std::to_string(m.frames_posted),
                           std::to_string(m.windows),
                           support::Table::num(speedup, 2)});
      support::JsonObject pt;
      pt.set("nodes", static_cast<std::uint64_t>(w.config.n_nodes))
          .set("domains", static_cast<std::uint64_t>(m.domains))
          .set("shards", static_cast<std::uint64_t>(k))
          .set("workers", static_cast<std::uint64_t>(m.shards))
          .set("wall_s", wall)
          .set("events_executed", m.aggregate.events_executed)
          .set("lookahead_s", m.lookahead_s)
          .set("frames_posted", m.frames_posted)
          .set("frames_processed", m.frames_processed)
          .set("deltas_posted", m.deltas_posted)
          .set("windows", m.windows)
          .set("messages_merged", m.messages_merged)
          .set("speedup_vs_shards1", speedup)
          .set("fingerprint_matches_shards1", fp == fp_k1);
      std::string& json = w.speedup_target ? world_json : points_json;
      if (json.size() > 1) json += ", ";
      json += pt.str();
    }
  }
  points_json += "]";
  world_json += "]";
  world_table.print(std::cout);
  std::cout << "\n";
  pb::check(all_identical,
            "world-sharded runs byte-identical to shards=1 at every K");

  // The speedup target is a claim about parallel hardware; with fewer
  // usable CPUs the honest answer is "not evaluated", never a fabricated
  // pass.
  const bool can_evaluate = usable_cpus >= 4 && ctx.trustworthy;
  if (can_evaluate) {
    pb::check(world_speedup >= 3.0,
              "world-sharded speedup >= 3x on >= 4 usable CPUs");
  } else {
    std::cout << "  [speedup target >=3x on 4 cores: NOT EVALUATED — "
              << usable_cpus << " usable CPU(s) of " << ctx.cores
              << " core(s)"
              << (ctx.trustworthy ? "" : ", context untrustworthy: " + ctx.caveat)
              << "; measured " << support::Table::num(world_speedup, 2)
              << "x at shards=" << world_speedup_k << "]\n";
  }

  support::JsonObject context;
  context.set("build_type", ctx.build_type)
      .set("host_cores", static_cast<std::uint64_t>(ctx.cores))
      .set("usable_cpus", static_cast<std::uint64_t>(usable_cpus))
      .set("cpu_governor", ctx.cpu_governor)
      .set("trustworthy", ctx.trustworthy);
  if (!ctx.trustworthy) context.set("caveat", ctx.caveat);
  support::JsonObject target;
  target.set("threshold_speedup", 3.0)
      .set("cores_required", std::uint64_t{4})
      .set("speedup", world_speedup)
      .set("speedup_shards", static_cast<std::uint64_t>(world_speedup_k))
      .set("evaluated", can_evaluate);
  support::JsonObject report;
  report.set("schema", std::string("precinct-bench-scale-v2"))
      .set("fast_mode", pb::fast_mode())
      .set_raw("context", context.str())
      .set_raw("speedup_target", target.str())
      .set("deterministic_across_shards", all_identical)
      .set_raw("points", points_json)
      .set_raw("world_points", world_json);
  if (const char* out_path = std::getenv("PRECINCT_SCALE_OUT")) {
    if (std::FILE* f = std::fopen(out_path, "wb")) {
      const std::string text = report.str(/*pretty=*/true) + "\n";
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
      std::cout << "  [wrote " << out_path << "]\n";
    } else {
      std::cout << "  [FAILED to open " << out_path << "]\n";
      return 1;
    }
  }
  return all_identical ? 0 : 1;
}
