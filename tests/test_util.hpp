// Shared test scaffolding: the deterministic 3x3 grid harness, the
// small scenario builders that were previously duplicated across
// engine_test.cpp, modules_test.cpp, channel_test.cpp and
// integration_test.cpp, and a scoped one-CPU affinity mask.
#pragma once

#include <sched.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/scenario.hpp"
#include "geo/geometry.hpp"
#include "mobility/mobility_model.hpp"
#include "mobility/static_placement.hpp"
#include "net/wireless_net.hpp"
#include "sim/simulator.hpp"

namespace precinct::test_util {

/// Brute-force O(N^2) neighbor reference straight from the mobility
/// oracle: the ground truth the radio's neighbor index must reproduce
/// exactly (liveness not applied).
inline std::vector<net::NodeId> brute_force_neighbors(
    mobility::MobilityModel& mob, net::NodeId self, double t,
    double range_m) {
  std::vector<net::NodeId> out;
  const geo::Point p = mob.position_at(self, t);
  for (net::NodeId i = 0; i < mob.node_count(); ++i) {
    if (i != self && geo::distance(p, mob.position_at(i, t)) <= range_m) {
      out.push_back(i);
    }
  }
  return out;
}

/// Base config for the deterministic 3x3 topology: 9 static peers, one
/// per region of a 600x600 m grid, no background workload, fixed-size
/// items so cache capacities are exact.
inline core::PrecinctConfig grid_config() {
  core::PrecinctConfig c;
  c.area = {{0, 0}, {600, 600}};
  c.n_nodes = 9;
  c.mobile = false;
  c.mobility_model = "static";
  c.mean_request_interval_s = 1e12;  // no background workload
  c.updates_enabled = false;
  c.catalog.n_items = 40;
  c.catalog.min_item_bytes = 1000;
  c.catalog.max_item_bytes = 1000;
  c.cache_fraction = 0.1;  // 4 items per peer
  c.seed = 5;
  return c;
}

/// One peer at each region center: node i in region i, links only
/// between 4-adjacent centers (200 m apart, range 250 m).
inline std::vector<geo::Point> grid_positions() {
  std::vector<geo::Point> pts;
  for (int iy = 0; iy < 3; ++iy) {
    for (int ix = 0; ix < 3; ++ix) {
      pts.push_back({100.0 + 200.0 * ix, 100.0 + 200.0 * iy});
    }
  }
  return pts;
}

/// Small mobile scenario for integration-level assertions (the paper's
/// qualitative shapes at a scale that runs in seconds).
inline core::PrecinctConfig small_mobile(std::uint64_t seed = 3) {
  core::PrecinctConfig c;
  c.n_nodes = 60;
  c.warmup_s = 100;
  c.measure_s = 400;
  c.seed = seed;
  return c;
}

/// Mid-size scenario for channel-level behaviour tests.
inline core::PrecinctConfig small_scenario() {
  core::PrecinctConfig c;
  c.n_nodes = 40;
  c.area = {{0.0, 0.0}, {800.0, 800.0}};
  c.mean_request_interval_s = 10.0;
  c.catalog.n_items = 200;
  c.warmup_s = 20.0;
  c.measure_s = 60.0;
  c.seed = 91;
  return c;
}

/// Merge `seeds` independent replications of `c`.
inline core::Metrics run_avg(core::PrecinctConfig c, std::size_t seeds = 3) {
  return core::merge_metrics(core::run_seeds(std::move(c), seeds));
}

/// The deterministic 3x3 harness: grid_config() peers at grid_positions().
/// Constructed started by default; pass start = false to assert on engine
/// construction itself (e.g. unknown scheme names) via build().
class GridHarness {
 public:
  explicit GridHarness(core::PrecinctConfig cfg = grid_config(),
                       bool start = true)
      : config(std::move(cfg)),
        catalog(config.catalog, support::hash_combine(config.seed, 0xCA7A)),
        placement(grid_positions()),
        net(sim, placement, config.wireless, config.energy_model, 1) {
    if (start) build();
  }

  /// Construct + initialize + start_measurement (throws on bad configs).
  core::PrecinctEngine& build() {
    engine_ = std::make_unique<core::PrecinctEngine>(
        config, sim, net, geo::RegionTable::grid(config.area, 3, 3), catalog);
    engine_->initialize();
    engine_->start_measurement();
    return *engine_;
  }

  [[nodiscard]] core::PrecinctEngine& engine() { return *engine_; }
  [[nodiscard]] const core::PrecinctEngine& engine() const { return *engine_; }

  /// First catalog key whose home region is `region` (and, optionally,
  /// whose replica region is `replica`).
  [[nodiscard]] std::optional<geo::Key> key_with_home(
      geo::RegionId region,
      std::optional<geo::RegionId> replica = std::nullopt) const {
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      const geo::Key k = catalog.key_of(i);
      if (engine().geo_hash().home_region(k, engine().region_table()) !=
          region) {
        continue;
      }
      if (replica.has_value() &&
          engine().geo_hash().replica_region(k, engine().region_table()) !=
              *replica) {
        continue;
      }
      return k;
    }
    return std::nullopt;
  }

  [[nodiscard]] net::NodeId custodian_of(geo::Key key) const {
    const geo::RegionId home =
        engine().geo_hash().home_region(key, engine().region_table());
    for (net::NodeId i = 0; i < 9; ++i) {
      if (engine().cache_of(i).find_static(key) != nullptr &&
          engine().region_of(i) == home) {
        return i;
      }
    }
    return net::kNoNode;
  }

  void settle(double seconds = 6.0) { sim.run_until(sim.now() + seconds); }

  core::PrecinctConfig config;
  workload::DataCatalog catalog;
  mobility::StaticPlacement placement;
  sim::Simulator sim;
  net::WirelessNet net;

 private:
  std::unique_ptr<core::PrecinctEngine> engine_;
};

/// Restricts the calling thread to the first CPU of its affinity mask
/// for the guard's lifetime (threads it starts meanwhile inherit that),
/// then restores the saved mask — `taskset -c 0` for one test.
class OneCpuAffinity {
 public:
  OneCpuAffinity() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
      throw std::runtime_error("OneCpuAffinity: cannot read the CPU mask");
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &one);
        break;
      }
    }
    if (sched_setaffinity(0, sizeof(one), &one) != 0) {
      throw std::runtime_error("OneCpuAffinity: cannot restrict the mask");
    }
  }
  ~OneCpuAffinity() { sched_setaffinity(0, sizeof(saved_), &saved_); }

  OneCpuAffinity(const OneCpuAffinity&) = delete;
  OneCpuAffinity& operator=(const OneCpuAffinity&) = delete;

 private:
  cpu_set_t saved_;
};

}  // namespace precinct::test_util
