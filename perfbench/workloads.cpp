#include "workloads.hpp"

#include <stdexcept>

namespace perfbench {

namespace pc = precinct::core;

namespace {

/// The paper's mobile read+write regime at city scale: 200 nodes on a
/// 1600 m square, random waypoint up to 10 m/s with 5 s pauses, 1000
/// items at Zipf 0.8, GD-LD caches at 2 %, push-adaptive-pull with
/// updates, perfect channel.
pc::PrecinctConfig city(std::uint32_t regions) {
  pc::PrecinctConfig c;
  c.n_nodes = 200;
  c.area = {{0.0, 0.0}, {1600.0, 1600.0}};
  c.regions_x = c.regions_y = regions;
  c.mobility_model = "random-waypoint";
  c.v_max = 10.0;
  c.pause_s = 5.0;
  c.catalog.n_items = 1000;
  c.zipf_theta = 0.8;
  c.cache_policy = "gd-ld";
  c.cache_fraction = 0.02;
  c.updates_enabled = true;
  c.consistency = precinct::consistency::Mode::kPushAdaptivePull;
  return c;
}

/// Read-heavy and lossy: 160 static nodes, 20x the request rate, a
/// rotating Zipf 0.9 hotspot, no updates, 5 % Bernoulli loss, 2 retries.
pc::PrecinctConfig static_crowd() {
  pc::PrecinctConfig c;
  c.n_nodes = 160;
  c.area = {{0.0, 0.0}, {1400.0, 1400.0}};
  c.regions_x = c.regions_y = 4;
  c.mobile = false;
  c.request_rate_multiplier = 20.0;
  c.zipf_theta = 0.9;
  c.hotspot_rotation_interval_s = 60.0;
  c.updates_enabled = false;
  c.consistency = precinct::consistency::Mode::kNone;
  c.wireless.channel.model = "bernoulli";
  c.wireless.channel.loss_p = 0.05;
  c.request_retries = 2;
  c.warmup_s = 10.0;
  c.measure_s = 100.0;
  return c;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool short_horizon) {
  Workload w;
  w.name = name;
  if (name == "city_serial") {
    w.config = city(4);
    w.config.warmup_s = 30.0;
    w.config.measure_s = 300.0;
  } else if (name == "static_crowd") {
    w.config = static_crowd();
  } else if (name == "city_world2") {
    w.shape = Shape::kWorld;
    w.config = city(2);
    w.config.shards = 2;
    w.config.warmup_s = 5.0;
    w.config.measure_s = 15.0;
  } else if (name == "city_fleet2") {
    w.shape = Shape::kFleet;
    w.config = city(2);
    w.config.warmup_s = 5.0;
    w.config.measure_s = 15.0;
    // A stalled barrier throws after 10 s instead of hanging; a short
    // linger keeps draining out of the timed run phase.
    w.config.transport_retry_s = 0.02;
    w.config.transport_timeout_s = 10.0;
    w.config.transport_linger_s = 0.2;
    w.config.transport_status_interval_s = 0.0;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (short_horizon) {
    w.config.warmup_s /= 20.0;
    w.config.measure_s /= 20.0;
  }
  w.config.seed = seed;
  w.config.validate();
  return w;
}

}  // namespace perfbench
