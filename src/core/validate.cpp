#include <algorithm>
#include <stdexcept>
#include <string>

#include "channel/channel_registry.hpp"
#include "check/categories.hpp"
#include "core/config.hpp"

namespace precinct::core {

namespace {
[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("PrecinctConfig: " + what);
}

// Range rules hold only for values inside the range, so a NaN (which
// compares false against everything) fails them: configs built in code
// never pass parse_number's rejection of non-finite numbers.
[[nodiscard]] bool positive(double x) { return x > 0.0; }
[[nodiscard]] bool non_negative(double x) { return x >= 0.0; }
[[nodiscard]] bool probability(double x) { return x >= 0.0 && x <= 1.0; }
}  // namespace

void PrecinctConfig::validate() const {
  if (n_nodes == 0) fail("n_nodes must be > 0");
  if (!positive(area.width()) || !positive(area.height())) {
    fail("area must have positive extent");
  }
  if (regions_x == 0 || regions_y == 0) fail("region grid must be >= 1x1");
  if (!positive(wireless.range_m)) fail("radio range must be > 0");
  if (!positive(wireless.bandwidth_bps)) fail("bandwidth must be > 0");
  {
    static constexpr const char* kMobilityModels[] = {
        "static",       "random-waypoint", "random-direction",
        "gauss-markov", "manhattan",       "commuter"};
    bool known = false;
    for (const char* name : kMobilityModels) known |= mobility_model == name;
    if (!known) fail("unknown mobility model '" + mobility_model + "'");
  }
  if (mobile && mobility_model != "static") {
    if (!positive(v_min) || !(v_max >= v_min)) fail("need 0 < v_min <= v_max");
    if (!non_negative(pause_s)) fail("pause must be >= 0");
    if (!positive(region_check_interval_s)) {
      fail("region check interval must be > 0");
    }
  }
  if (!positive(street_spacing_m)) fail("street spacing must be > 0");
  if (!probability(turn_probability)) {
    fail("turn probability must be in [0, 1]");
  }
  if (mobile && mobility_model == "manhattan" &&
      street_spacing_m >= std::min(area.width(), area.height())) {
    fail("street spacing too wide for the area (need a 2x2 intersection "
         "grid)");
  }
  if (!positive(commuter_period_s)) fail("commuter period must be > 0");
  if (commuter_hubs == 0) fail("commuter fleet needs at least one hub");
  // Heterogeneous fleet: classes are the canonical name-sorted list with
  // contiguous id ranges, so ordering and counts must be well-formed
  // before any subsystem derives per-node attributes from them.
  if (!node_classes.empty()) {
    std::size_t total = 0;
    for (std::size_t k = 0; k < node_classes.size(); ++k) {
      const NodeClassConfig& cls = node_classes[k];
      if (cls.name.empty()) fail("node class needs a name");
      for (const char ch : cls.name) {
        const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                        (ch >= '0' && ch <= '9') || ch == '_';
        if (!ok) {
          fail("node class name '" + cls.name +
               "' must use only [A-Za-z0-9_]");
        }
      }
      if (k > 0 && !(node_classes[k - 1].name < cls.name)) {
        fail("node classes must be sorted by name and unique (got '" +
             node_classes[k - 1].name + "' before '" + cls.name + "')");
      }
      if (cls.count == 0) {
        fail("node class '" + cls.name + "' must have count > 0");
      }
      if (!non_negative(cls.cache_kb)) {
        fail("node class '" + cls.name + "' cache_kb must be >= 0");
      }
      if (!non_negative(cls.speed)) {
        fail("node class '" + cls.name + "' speed must be >= 0");
      }
      total += cls.count;
    }
    if (total != n_nodes) {
      fail("node class counts must sum to n_nodes (" +
           std::to_string(total) + " != " + std::to_string(n_nodes) + ")");
    }
  }
  if (catalog.n_items == 0) fail("catalog needs at least one item");
  if (catalog.min_item_bytes == 0 ||
      catalog.max_item_bytes < catalog.min_item_bytes) {
    fail("bad catalog item size range");
  }
  if (!non_negative(zipf_theta)) fail("zipf theta must be >= 0");
  if (!positive(request_rate_multiplier)) {
    fail("request rate multiplier must be > 0");
  }
  if (zipf_drift_per_s != 0.0 && !positive(zipf_drift_step_s)) {
    fail("zipf drift step must be > 0 when drift is enabled");
  }
  if (!positive(mean_request_interval_s)) fail("request interval must be > 0");
  if (updates_enabled && !positive(mean_update_interval_s)) {
    fail("update interval must be > 0");
  }
  if (!probability(cache_fraction)) {
    fail("cache fraction must be in [0, 1]");
  }
  if (!probability(ttr_alpha)) fail("ttr alpha must be in [0, 1]");
  if (!non_negative(ttr_initial_s)) fail("initial TTR must be >= 0");
  if (push_retries < 0) fail("push retries must be >= 0");
  if (use_beacons) {
    if (!positive(beacon_interval_s)) fail("beacon interval must be > 0");
    if (!(neighbor_lifetime_s >= beacon_interval_s)) {
      fail("neighbor lifetime must cover at least one beacon interval");
    }
  }
  if (region_flood_ttl < 1) fail("region flood TTL must be >= 1");
  if (network_flood_ttl < 1) fail("network flood TTL must be >= 1");
  if (max_route_hops < 1) fail("route hop budget must be >= 1");
  if (!positive(regional_timeout_s) || !positive(remote_timeout_s)) {
    fail("timeouts must be > 0");
  }
  if (replica_count >= static_cast<std::size_t>(regions_x) * regions_y) {
    fail("replica_count needs at least replica_count+1 regions");
  }
  if (request_retries < 0) fail("request retries must be >= 0");
  // Channel-model knobs: names resolve in the channel registry and every
  // probability/duration is in range.
  {
    const channel::ChannelConfig& ch = wireless.channel;
    if (!channel::ChannelRegistry::instance().has(ch.model)) {
      fail("unknown channel model '" + ch.model + "'");
    }
    if (!probability(ch.loss_p)) {
      fail("channel loss probability must be in [0, 1]");
    }
    if (!probability(ch.edge_start_fraction)) {
      fail("channel edge_start_fraction must be in [0, 1]");
    }
    if (!probability(ch.edge_loss_p)) {
      fail("channel edge loss probability must be in [0, 1]");
    }
    if (!probability(ch.ge_enter_burst_p)) {
      fail("channel burst-entry probability must be in [0, 1]");
    }
    if (!non_negative(ch.ge_mean_burst_frames)) {
      fail("channel mean burst length must be >= 0");
    }
    if (!probability(ch.ge_loss_good) || !probability(ch.ge_loss_bad)) {
      fail("channel per-state loss probabilities must be in [0, 1]");
    }
    for (const channel::Blackout& b : ch.blackouts) {
      if (!(b.end_s >= b.start_s)) {
        fail("channel blackout window must not end before it starts");
      }
    }
    for (const channel::Partition& w : ch.partitions) {
      if (!(w.end_s >= w.start_s)) {
        fail("channel partition window must not end before it starts");
      }
    }
  }
  if (dynamic_regions) {
    if (!positive(region_reconfig_interval_s)) {
      fail("region reconfig interval must be > 0");
    }
    if (max_region_peers <= min_region_peers) {
      fail("max_region_peers must exceed min_region_peers");
    }
  }
  if (prefetch_count > catalog.n_items) {
    fail("prefetch_count cannot exceed the catalog size");
  }
  if (!non_negative(crash_rate_per_s)) fail("crash rate must be >= 0");
  if (!non_negative(join_rate_per_s)) fail("join rate must be >= 0");
  if (!probability(graceful_fraction)) {
    fail("graceful fraction must be in [0, 1]");
  }
  if (!non_negative(warmup_s) || !positive(measure_s)) {
    fail("warmup must be >= 0 and measure window > 0");
  }
  // World sharding (DESIGN.md §13): `shards > 1` cuts one world into
  // region-column domains with real radio traffic across the cut.
  if (shards == 0) fail("shards must be >= 1");
  if (shards > 1 && dynamic_regions) {
    fail("dynamic_regions reconfigures the region table globally and "
         "cannot be world-sharded; run shards = 1");
  }
  // Real-transport knobs (DESIGN.md §14).  The daemon/ctl address plan
  // needs the whole fleet's ports inside the unprivileged range.
  if (transport_base_port < 1024 || transport_base_port > 65000) {
    fail("transport_base_port must be in [1024, 65000]");
  }
  if (!non_negative(transport_status_interval_s)) {
    fail("transport_status_interval must be >= 0");
  }
  if (!positive(transport_retry_s)) fail("transport_retry must be > 0");
  if (!(transport_timeout_s > transport_retry_s)) {
    fail("transport_timeout must exceed transport_retry");
  }
  if (!non_negative(transport_linger_s)) fail("transport_linger must be >= 0");
  // Correctness-harness knobs: category names must parse and the audit
  // stride must be at least one event.
  if (!check.empty()) {
    try {
      (void)check::parse_categories(check);
    } catch (const std::invalid_argument& e) {
      fail(e.what());
    }
  }
  if (check_stride == 0) fail("check stride must be >= 1");
  // Scheme wiring: the combination must make sense.  The unstructured
  // baselines search by flooding, without the region infrastructure the
  // pull-based schemes poll — running them together would silently
  // measure nonsense.
  const bool baseline_retrieval = retrieval == RetrievalKind::kFlooding ||
                                  retrieval == RetrievalKind::kExpandingRing;
  const bool polling_consistency =
      consistency == consistency::Mode::kPullEveryTime ||
      consistency == consistency::Mode::kPushAdaptivePull;
  if (baseline_retrieval && polling_consistency) {
    fail(std::string("the '") + to_string(retrieval) +
         "' baseline has no region-based lookup, so the '" +
         consistency::to_string(consistency) +
         "' scheme's home-region polling is meaningless; use consistency = "
         "none or plain-push with baseline retrieval");
  }
}

}  // namespace precinct::core
