#include "core/scenario.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "mobility/class_mix.hpp"
#include "mobility/commuter_flow.hpp"
#include "mobility/gauss_markov.hpp"
#include "mobility/manhattan_grid.hpp"
#include "mobility/random_direction.hpp"
#include "mobility/random_waypoint.hpp"
#include "mobility/static_placement.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace precinct::core {

namespace {

/// Gauss-Markov reverts to the middle of the speed band.
double gauss_markov_mean(double v_min, double v_max) {
  return 0.5 * (v_min + v_max);
}

/// Speed band [v_min, v_max] of one node class: a class speed caps the
/// band, and pulls v_min down with it.
std::pair<double, double> class_band(const PrecinctConfig& config,
                                     const NodeClassConfig& cls) {
  if (cls.speed <= 0.0) return {config.v_min, config.v_max};
  return {std::min(config.v_min, cls.speed), cls.speed};
}

/// One mobility model for `n_nodes` nodes in the given speed band.  The
/// homogeneous fleet and every node class funnel through this, so a
/// class that overrides nothing takes exactly the homogeneous path.
std::unique_ptr<mobility::MobilityModel> make_single_mobility(
    const std::string& model, std::size_t n_nodes, double v_min, double v_max,
    const PrecinctConfig& config, std::uint64_t seed) {
  if (model == "static") {
    return std::make_unique<mobility::StaticPlacement>(
        mobility::StaticPlacement::uniform(n_nodes, config.area, seed));
  }
  if (model == "random-waypoint") {
    mobility::RandomWaypointConfig rwp;
    rwp.area = config.area;
    rwp.v_min = v_min;
    rwp.v_max = v_max;
    rwp.pause_s = config.pause_s;
    return std::make_unique<mobility::RandomWaypoint>(n_nodes, rwp, seed);
  }
  if (model == "random-direction") {
    mobility::RandomDirectionConfig rd;
    rd.area = config.area;
    rd.v_min = v_min;
    rd.v_max = v_max;
    rd.pause_s = config.pause_s;
    return std::make_unique<mobility::RandomDirection>(n_nodes, rd, seed);
  }
  if (model == "gauss-markov") {
    mobility::GaussMarkovConfig gm;
    gm.area = config.area;
    gm.mean_speed = gauss_markov_mean(v_min, v_max);
    return std::make_unique<mobility::GaussMarkov>(n_nodes, gm, seed);
  }
  if (model == "manhattan") {
    mobility::ManhattanGridConfig mg;
    mg.area = config.area;
    mg.street_spacing_m = config.street_spacing_m;
    mg.turn_probability = config.turn_probability;
    mg.v_min = v_min;
    mg.v_max = v_max;
    mg.pause_s = config.pause_s;
    return std::make_unique<mobility::ManhattanGrid>(n_nodes, mg, seed);
  }
  if (model == "commuter") {
    mobility::CommuterFlowConfig cf;
    cf.area = config.area;
    cf.period_s = config.commuter_period_s;
    cf.n_hubs = config.commuter_hubs;
    cf.v_min = v_min;
    cf.v_max = v_max;
    return std::make_unique<mobility::CommuterFlow>(n_nodes, cf, seed);
  }
  throw std::invalid_argument("make_mobility: unknown model '" + model + "'");
}

std::unique_ptr<mobility::MobilityModel> make_mobility(
    const PrecinctConfig& config) {
  const std::uint64_t seed = support::hash_combine(config.seed, 0x0b17);
  const std::string model =
      config.mobile ? config.mobility_model : std::string("static");
  if (config.node_classes.empty()) {
    return make_single_mobility(model, config.n_nodes, config.v_min,
                                config.v_max, config, seed);
  }
  // Heterogeneous fleet: one sub-model per class over its contiguous id
  // range.  Class 0 draws from the plain mobility seed so a single class
  // with no overrides is byte-identical to the homogeneous fleet; later
  // classes get their own streams.
  std::vector<std::unique_ptr<mobility::MobilityModel>> parts;
  parts.reserve(config.node_classes.size());
  for (std::size_t k = 0; k < config.node_classes.size(); ++k) {
    const NodeClassConfig& cls = config.node_classes[k];
    const std::uint64_t class_seed =
        k == 0 ? seed : support::hash_combine(config.seed, 0xC1A5u + k);
    const std::string cls_model = cls.fixed ? std::string("static") : model;
    const auto [cls_v_min, cls_v_max] = class_band(config, cls);
    parts.push_back(make_single_mobility(cls_model, cls.count, cls_v_min,
                                         cls_v_max, config, class_seed));
  }
  if (parts.size() == 1) return std::move(parts.front());
  return std::make_unique<mobility::ClassMix>(std::move(parts));
}

/// Fastest node the radio must bound for: fixed classes pin their nodes;
/// every other node moves at most at the top of its speed band, except
/// that Gauss-Markov's speed process may climb to its own clamp.
double effective_v_max(const PrecinctConfig& config) {
  const auto top_speed = [&config](double v_min, double v_max) {
    if (!config.mobile || config.mobility_model != "gauss-markov") {
      return v_max;
    }
    mobility::GaussMarkovConfig gm;
    gm.mean_speed = gauss_markov_mean(v_min, v_max);
    return gm.max_speed();
  };
  if (config.node_classes.empty()) {
    return top_speed(config.v_min, config.v_max);
  }
  double v = 0.0;
  for (const NodeClassConfig& cls : config.node_classes) {
    if (cls.fixed) continue;
    const auto [cls_v_min, cls_v_max] = class_band(config, cls);
    v = std::max(v, top_speed(cls_v_min, cls_v_max));
  }
  return v;
}

}  // namespace

Scenario::Scenario(const PrecinctConfig& config)
    : config_((config.validate(), config)),
      catalog_(config.catalog, support::hash_combine(config.seed, 0xCA7A)),
      mobility_(make_mobility(config)) {
  net::WirelessConfig wireless = config.wireless;
  wireless.area = config.area;
  wireless.max_node_speed_mps = std::max(wireless.max_node_speed_mps,
                                         1.25 * effective_v_max(config));
  net_ = std::make_unique<net::WirelessNet>(
      sim_, *mobility_, wireless, config.energy_model,
      support::hash_combine(config.seed, 0x2ad0));
  engine_ = std::make_unique<PrecinctEngine>(
      config, sim_, *net_,
      geo::RegionTable::grid(config.area, config.regions_x, config.regions_y),
      catalog_);
}

sim::Tracer& Scenario::enable_tracing(std::size_t capacity) {
  if (!tracer_) {
    tracer_ = std::make_unique<sim::Tracer>(capacity);
    tracer_->enable_all();
    engine_->set_tracer(tracer_.get());
    net_->set_tracer(tracer_.get());
  }
  return *tracer_;
}

Metrics Scenario::run() {
  if (ran_) throw std::logic_error("Scenario::run: already ran");
  ran_ = true;
  engine_->initialize();
  sim_.run_until(config_.warmup_s);
  engine_->start_measurement();
  sim_.run_until(config_.end_time_s());
  return engine_->finalize();
}

Metrics run_scenario(const PrecinctConfig& config) {
  Scenario scenario(config);
  return scenario.run();
}

std::vector<Metrics> run_seeds(PrecinctConfig config, std::size_t n_seeds) {
  std::vector<Metrics> results(n_seeds);
  const std::uint64_t base_seed = config.seed;
  support::parallel_for(n_seeds, [&](std::size_t i) {
    PrecinctConfig c = config;
    c.seed = base_seed + i;
    results[i] = run_scenario(c);
  });
  return results;
}

Metrics merge_metrics(const std::vector<Metrics>& runs) {
  Metrics total;
  for (const Metrics& m : runs) {
    total.requests_issued += m.requests_issued;
    total.requests_completed += m.requests_completed;
    total.requests_failed += m.requests_failed;
    total.own_cache_hits += m.own_cache_hits;
    total.regional_hits += m.regional_hits;
    total.en_route_hits += m.en_route_hits;
    total.home_region_hits += m.home_region_hits;
    total.replica_hits += m.replica_hits;
    total.latency_s.merge(m.latency_s);
    total.latency_q.merge(m.latency_q);
    for (std::size_t i = 0; i < total.latency_by_class.size(); ++i) {
      total.latency_by_class[i].merge(m.latency_by_class[i]);
    }
    total.bytes_requested += m.bytes_requested;
    total.bytes_hit += m.bytes_hit;
    total.updates_initiated += m.updates_initiated;
    total.cache_served_valid += m.cache_served_valid;
    total.false_hits += m.false_hits;
    total.polls_sent += m.polls_sent;
    total.consistency_messages += m.consistency_messages;
    total.energy_total_mj += m.energy_total_mj;
    total.energy_broadcast_mj += m.energy_broadcast_mj;
    total.energy_p2p_mj += m.energy_p2p_mj;
    total.energy_channel_discard_mj += m.energy_channel_discard_mj;
    total.messages_sent += m.messages_sent;
    total.bytes_sent += m.bytes_sent;
    total.wire_bytes_sent += m.wire_bytes_sent;
    total.wire_bytes_received += m.wire_bytes_received;
    total.frames_lost += m.frames_lost;
    total.frames_dropped_by_channel += m.frames_dropped_by_channel;
    for (std::size_t i = 0; i < total.channel_drops_by_cause.size(); ++i) {
      total.channel_drops_by_cause[i] += m.channel_drops_by_cause[i];
    }
    total.retransmissions += m.retransmissions;
    total.duplicate_responses_suppressed += m.duplicate_responses_suppressed;
    total.custody_handoffs += m.custody_handoffs;
    total.events_executed += m.events_executed;
  }
  return total;
}

}  // namespace precinct::core
