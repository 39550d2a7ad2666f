// Shared helpers for the figure-regeneration benches.
//
// Every bench sweeps one paper parameter, runs a few seeded replications
// per point (in parallel across points), and prints the figure's series
// as an aligned table plus the qualitative "shape" checks the paper's
// plot supports.  Set PRECINCT_BENCH_FAST=1 for shorter runs.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_context.hpp"
#include "core/scenario.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace precinct::bench {

inline bool fast_mode() {
  const char* v = std::getenv("PRECINCT_BENCH_FAST");
  return v != nullptr && v[0] == '1';
}

inline std::size_t seeds_per_point() { return fast_mode() ? 2 : 4; }

/// Paper §6.1 defaults for the mobile caching/consistency experiments.
inline core::PrecinctConfig mobile_base() {
  core::PrecinctConfig c;
  c.n_nodes = 80;
  c.v_max = 6.0;
  c.warmup_s = fast_mode() ? 60.0 : 120.0;
  c.measure_s = fast_mode() ? 240.0 : 600.0;
  c.seed = 1000;
  return c;
}

/// Static small-area setup for the Fig 9 analytical-validation runs:
/// no caching, tiny items (the analysis models header-sized messages).
inline core::PrecinctConfig static_base() {
  core::PrecinctConfig c;
  c.area = {{0, 0}, {600, 600}};
  c.mobile = false;
  c.cache_fraction = 0.0;
  c.catalog.min_item_bytes = 64;
  c.catalog.max_item_bytes = 64;
  c.warmup_s = fast_mode() ? 40.0 : 80.0;
  c.measure_s = fast_mode() ? 200.0 : 500.0;
  c.seed = 2000;
  return c;
}

/// Run each config across seeds_per_point() replications; sweep points
/// execute in parallel (each owns its full stack).
///
/// Set PRECINCT_BENCH_CHECK (e.g. to "all") to run every point with the
/// invariant checker enabled; the checker is observe-only, so the
/// printed figures must not change — only the wall time does.
inline std::vector<core::Metrics> run_sweep(
    const std::vector<core::PrecinctConfig>& points) {
  const char* check = std::getenv("PRECINCT_BENCH_CHECK");
  std::vector<core::Metrics> merged(points.size());
  support::parallel_for(points.size(), [&](std::size_t i) {
    core::PrecinctConfig c = points[i];
    if (check != nullptr && check[0] != '\0') c.check = check;
    merged[i] = core::merge_metrics(core::run_seeds(std::move(c),
                                                    seeds_per_point()));
  });
  return merged;
}

inline void print_header(const std::string& title, const std::string& setup) {
  // Announce once per process (strict-mode enforcement happens here too)
  // and stamp every figure with the context it was measured under.
  static const BenchContext ctx = announce_bench_context();
  std::cout << "== " << title << " ==\n" << setup << "\n";
  std::cout << "[measured: build=" << ctx.build_type << " cores=" << ctx.cores
            << " governor=" << ctx.cpu_governor
            << (ctx.trustworthy ? "" : " UNTRUSTWORTHY: " + ctx.caveat)
            << "]\n\n";
}

/// Prints one shape line.  Advisory: a failed check never sets the exit
/// status, because no sweep yet runs the seeds to resolve its effect, so
/// a FAIL line says so itself.
inline void check(bool ok, const std::string& what) {
  if (ok) {
    std::cout << "  [shape OK]   " << what << "\n";
  } else {
    std::cout << "  [shape FAIL] " << what
              << " (advisory: exit status unaffected)\n";
  }
}

}  // namespace precinct::bench
