// google-benchmark microbenchmarks for the hot paths of the simulator
// substrate: event queue, neighbor queries, GPSR next-hop, Gabriel
// planarization, cache operations, Zipf sampling, geographic hashing.
#include <benchmark/benchmark.h>

#include <cmath>
#include <string>

#include "bench_context.hpp"

#include "cache/cache_store.hpp"
#include "core/world_scenario.hpp"
#include "geo/geo_hash.hpp"
#include "mobility/random_waypoint.hpp"
#include "mobility/static_placement.hpp"
#include "net/wireless_net.hpp"
#include "routing/flood.hpp"
#include "routing/gpsr.hpp"
#include "sim/simulator.hpp"
#include "net/spatial_grid.hpp"
#include "support/kv_file.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "workload/zipf.hpp"

namespace {

using namespace precinct;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  support::Rng rng(1);
  for (auto _ : state) {
    sim::Simulator sim;
    for (std::size_t i = 0; i < n; ++i) {
      sim.schedule(rng.uniform(0.0, 100.0), [] {});
    }
    sim.run_all();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(16384);

// Schedule/cancel churn: half the scheduled events are cancelled before the
// queue runs.  The seed's sorted-vector erase made this quadratic; the
// tombstone cancel keeps it O(1) per cancel.
void BM_EventQueueCancel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  support::Rng rng(17);
  std::vector<sim::EventHandle> handles;
  handles.reserve(n);
  for (auto _ : state) {
    sim::Simulator sim;
    handles.clear();
    for (std::size_t i = 0; i < n; ++i) {
      handles.push_back(sim.schedule(rng.uniform(0.0, 100.0), [] {}));
    }
    for (std::size_t i = 0; i < n; i += 2) {
      benchmark::DoNotOptimize(sim.cancel(handles[i]));
    }
    sim.run_all();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueCancel)->Arg(1024)->Arg(16384);

struct RadioFixtureState {
  sim::Simulator sim;
  mobility::StaticPlacement placement;
  net::WirelessNet net;
  RadioFixtureState(std::size_t n, std::uint64_t seed)
      : placement(mobility::StaticPlacement::uniform(
            n, {{0, 0}, {1200, 1200}}, seed)),
        net(sim, placement, {}, energy::FeeneyModel{}, seed) {}
};

void BM_NeighborQuery(benchmark::State& state) {
  RadioFixtureState fx(static_cast<std::size_t>(state.range(0)), 7);
  net::NodeId i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.net.neighbors(i).size());
    i = (i + 1) % fx.net.node_count();
  }
}
BENCHMARK(BM_NeighborQuery)->Arg(80)->Arg(160);

// Network-wide flood from a rotating origin: every receiver re-broadcasts
// once (flood dedup + TTL), so one iteration exercises the full radio
// fan-out path — airtime reservation, per-receiver energy charging, and
// one delivery closure per (forwarder, neighbor) pair.
void BM_BroadcastFanout(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  RadioFixtureState fx(n, 23);
  routing::FloodController flood(n);
  std::uint64_t delivered = 0;
  fx.net.set_receive_handler(
      [&](net::NodeId node, const net::Packet& p) {
        ++delivered;
        if (!flood.mark_seen(node, p.id)) return;
        if (!routing::FloodController::ttl_allows_forward(p)) return;
        net::Packet fwd = p;
        fwd.ttl -= 1;
        fwd.hops += 1;
        fwd.src = node;
        fx.net.broadcast(fwd);
      });
  net::NodeId origin = 0;
  for (auto _ : state) {
    flood.clear();
    net::Packet p;
    p.id = fx.net.next_packet_id();
    p.mode = net::RouteMode::kNetworkFlood;
    p.origin = origin;
    p.src = origin;
    p.size_bytes = 96;
    p.ttl = 8;
    flood.mark_seen(origin, p.id);
    fx.net.broadcast(p);
    fx.sim.run_all();
    origin = static_cast<net::NodeId>((origin + 1) % n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
}
BENCHMARK(BM_BroadcastFanout)->Arg(80)->Arg(160);

// Flood dedup table: each round every node marks a fresh packet id and
// re-checks it as duplicates arrive from neighbors; rounds are separated
// by clear() (per-scenario reset).
void BM_FloodSeen(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  routing::FloodController flood(n);
  std::uint64_t id = 0;
  std::int64_t ops = 0;
  for (auto _ : state) {
    flood.clear();
    for (int round = 0; round < 16; ++round) {
      ++id;
      for (net::NodeId node = 0; node < n; ++node) {
        benchmark::DoNotOptimize(flood.mark_seen(node, id));
        benchmark::DoNotOptimize(flood.mark_seen(node, id));  // dup path
        benchmark::DoNotOptimize(flood.has_seen(node, id));
        ops += 3;
      }
    }
  }
  state.SetItemsProcessed(ops);
}
BENCHMARK(BM_FloodSeen)->Arg(80)->Arg(160);

void BM_GpsrNextHop(benchmark::State& state) {
  RadioFixtureState fx(static_cast<std::size_t>(state.range(0)), 11);
  routing::Gpsr gpsr(fx.net);
  support::Rng rng(3);
  for (auto _ : state) {
    net::Packet p;
    p.dest_location = {rng.uniform(0, 1200), rng.uniform(0, 1200)};
    const auto self =
        static_cast<net::NodeId>(rng.uniform_int(fx.net.node_count()));
    benchmark::DoNotOptimize(gpsr.next_hop(self, p));
  }
}
BENCHMARK(BM_GpsrNextHop)->Arg(80)->Arg(160);

// Epoch-cached planarization: the world is static and the clock stands
// still, so after the first lap every call is a cache hit.
void BM_GabrielPlanarizationCached(benchmark::State& state) {
  RadioFixtureState fx(static_cast<std::size_t>(state.range(0)), 13);
  routing::Gpsr gpsr(fx.net);
  net::NodeId i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpsr.planar_neighbors(i).size());
    i = (i + 1) % fx.net.node_count();
  }
}
BENCHMARK(BM_GabrielPlanarizationCached)->Arg(80)->Arg(160);

void BM_CacheInsertEvict(benchmark::State& state) {
  support::Rng rng(5);
  cache::CacheStore store(64 * 1024, cache::make_policy("gd-ld"));
  geo::Key key = 0;
  for (auto _ : state) {
    cache::CacheEntry e;
    e.key = ++key;
    e.size_bytes = 1024 + rng.uniform_int(4096);
    e.access_count = rng.uniform(0, 10);
    e.region_distance = rng.uniform(0, 2);
    benchmark::DoNotOptimize(store.insert(e));
  }
}
BENCHMARK(BM_CacheInsertEvict);

void BM_CacheTouch(benchmark::State& state) {
  cache::CacheStore store(1024 * 1024, cache::make_policy("gd-ld"));
  for (geo::Key k = 0; k < 200; ++k) {
    cache::CacheEntry e;
    e.key = k;
    e.size_bytes = 1024;
    store.insert(e);
  }
  geo::Key k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.touch(k, 1.0, 0.5));
    k = (k + 1) % 200;
  }
}
BENCHMARK(BM_CacheTouch);

void BM_ZipfSample(benchmark::State& state) {
  const workload::ZipfGenerator zipf(
      static_cast<std::size_t>(state.range(0)), 0.8);
  support::Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(100000);

void BM_GeoHashHomeRegion(benchmark::State& state) {
  const geo::GeoHash hash({{0, 0}, {1200, 1200}});
  const auto table = geo::RegionTable::grid({{0, 0}, {1200, 1200}}, 3, 3);
  geo::Key k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash.home_region(++k, table));
  }
}
BENCHMARK(BM_GeoHashHomeRegion);

void BM_SpatialGridRebuildQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  support::Rng rng(21);
  std::vector<double> xs(n), ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = rng.uniform(0, 2400);
    ys[i] = rng.uniform(0, 2400);
  }
  net::SpatialGrid grid({{0, 0}, {2400, 2400}}, 250.0);
  std::vector<std::uint32_t> out;
  for (auto _ : state) {
    grid.rebuild(xs.data(), ys.data(), n);
    for (int q = 0; q < 16; ++q) {
      const std::size_t c = static_cast<std::size_t>(q) % n;
      out.clear();
      grid.query({xs[c], ys[c]}, 250.0, out);
      benchmark::DoNotOptimize(out.size());
    }
  }
}
BENCHMARK(BM_SpatialGridRebuildQuery)->Arg(160)->Arg(640);

// Rebuild-only cost of the spatial index at city-grid scale (constant
// density: the area grows with the node count so cells hold ~7 nodes, as
// in the paper's 160-node/1200 m configuration).  This is the loop the
// radio pays every spatial_index_staleness_s once worlds reach 10^4-10^5
// nodes, so it is pinned in tools/bench_diff.py.
void BM_SpatialGridRebuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const double side =
      1200.0 * std::sqrt(static_cast<double>(n) / 160.0);
  support::Rng rng(29);
  std::vector<double> xs(n), ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = rng.uniform(0, side);
    ys[i] = rng.uniform(0, side);
  }
  net::SpatialGrid grid({{0, 0}, {side, side}}, 250.0);
  for (auto _ : state) {
    grid.rebuild(xs.data(), ys.data(), n);
    benchmark::DoNotOptimize(grid.indexed_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SpatialGridRebuild)->Arg(1024)->Arg(8192);

// Steady-state victim selection: a full catalog absorbs one same-sized
// insert per iteration, so every insert is exactly one minimum-priority
// scan over `n` resident entries plus one eviction.  32 rows is about the
// largest scan any workload or figure runs (DESIGN.md §12: at most 30 on
// perfbench, 35 in Fig 4's full sweep); 256 and 1024 show how the scan
// grows past that.
void BM_CacheScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kEntryBytes = 2048;
  support::Rng rng(31);
  cache::CacheStore store(n * kEntryBytes, cache::make_policy("gd-ld"));
  geo::Key key = 0;
  for (std::size_t i = 0; i < n; ++i) {
    cache::CacheEntry e;
    e.key = ++key;
    e.size_bytes = kEntryBytes;
    e.access_count = rng.uniform(0, 10);
    e.region_distance = rng.uniform(0, 2);
    store.insert(e);
  }
  for (auto _ : state) {
    cache::CacheEntry e;
    e.key = ++key;
    e.size_bytes = kEntryBytes;
    e.access_count = rng.uniform(0, 10);
    e.region_distance = rng.uniform(0, 2);
    benchmark::DoNotOptimize(store.insert(e));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CacheScan)->Arg(32)->Arg(256)->Arg(1024);

// End-to-end cost of a small world-sharded run (DESIGN.md §13): domain
// replicas, the derived-lookahead window loop, cross-cut frame
// marshalling and the conservation audit, on one worker so the number is
// the sharding machinery's overhead rather than a parallelism claim.
// Pinned in tools/bench_diff.py: the window loop runs once per derived
// lookahead (sub-millisecond), so a regression here multiplies across
// every world-sharded simulated second.
void BM_WorldShardedRun(benchmark::State& state) {
  core::PrecinctConfig c;
  c.n_nodes = 24;
  c.area = {{0.0, 0.0}, {600.0, 600.0}};
  c.regions_x = c.regions_y = 3;
  c.catalog.n_items = 100;
  c.mean_request_interval_s = 4.0;
  c.warmup_s = 2.0;
  c.measure_s = 8.0;
  c.seed = 77;
  c.shards = 1;
  for (auto _ : state) {
    const core::WorldShardedMetrics m = core::run_world_scenario(c);
    benchmark::DoNotOptimize(m.frames_processed);
  }
}
BENCHMARK(BM_WorldShardedRun);

void BM_KvFileParse(benchmark::State& state) {
  std::string text;
  for (int i = 0; i < 40; ++i) {
    text += "key_" + std::to_string(i) + " = " + std::to_string(i * 1.5) +
            "  # comment\n";
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(support::KvFile::parse(text));
  }
}
BENCHMARK(BM_KvFileParse);

void BM_Sparkline(benchmark::State& state) {
  support::Rng rng(4);
  std::vector<double> series;
  for (int i = 0; i < 120; ++i) series.push_back(rng.uniform(0, 100));
  for (auto _ : state) {
    benchmark::DoNotOptimize(support::sparkline(series));
  }
}
BENCHMARK(BM_Sparkline);

void BM_RandomWaypointAdvance(benchmark::State& state) {
  mobility::RandomWaypointConfig cfg;
  mobility::RandomWaypoint rwp(80, cfg, 3);
  double t = 0.0;
  std::size_t i = 0;
  for (auto _ : state) {
    t += 0.01;
    benchmark::DoNotOptimize(rwp.position_at(i, t));
    i = (i + 1) % 80;
  }
}
BENCHMARK(BM_RandomWaypointAdvance);

}  // namespace

// Custom main (instead of benchmark_main): captures the host/build
// context, refuses under PRECINCT_BENCH_STRICT=1 when it is
// untrustworthy, and embeds it in the JSON report's context block so
// checked-in BENCH_micro.json snapshots carry their own provenance
// (tools/bench_diff.py keys comparability off these fields).
int main(int argc, char** argv) {
  const precinct::bench::BenchContext ctx =
      precinct::bench::announce_bench_context();
  benchmark::AddCustomContext("precinct_build_type", ctx.build_type);
  benchmark::AddCustomContext("precinct_host_cores",
                              std::to_string(ctx.cores));
  benchmark::AddCustomContext("precinct_cpu_governor", ctx.cpu_governor);
  benchmark::AddCustomContext("precinct_trustworthy",
                              ctx.trustworthy ? "true" : "false");
  if (!ctx.trustworthy) {
    benchmark::AddCustomContext("precinct_caveat", ctx.caveat);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
