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
}  // namespace

void PrecinctConfig::validate() const {
  if (n_nodes == 0) fail("n_nodes must be > 0");
  if (area.width() <= 0.0 || area.height() <= 0.0) {
    fail("area must have positive extent");
  }
  if (regions_x == 0 || regions_y == 0) fail("region grid must be >= 1x1");
  if (wireless.range_m <= 0.0) fail("radio range must be > 0");
  if (wireless.bandwidth_bps <= 0.0) fail("bandwidth must be > 0");
  {
    static constexpr const char* kMobilityModels[] = {
        "static",       "random-waypoint", "random-direction",
        "gauss-markov", "manhattan",       "commuter"};
    bool known = false;
    for (const char* name : kMobilityModels) known |= mobility_model == name;
    if (!known) fail("unknown mobility model '" + mobility_model + "'");
  }
  if (mobile && mobility_model != "static") {
    if (v_min <= 0.0 || v_max < v_min) fail("need 0 < v_min <= v_max");
    if (pause_s < 0.0) fail("pause must be >= 0");
    if (region_check_interval_s <= 0.0) {
      fail("region check interval must be > 0");
    }
  }
  if (street_spacing_m <= 0.0) fail("street spacing must be > 0");
  if (turn_probability < 0.0 || turn_probability > 1.0) {
    fail("turn probability must be in [0, 1]");
  }
  if (mobile && mobility_model == "manhattan" &&
      street_spacing_m >= std::min(area.width(), area.height())) {
    fail("street spacing too wide for the area (need a 2x2 intersection "
         "grid)");
  }
  if (commuter_period_s <= 0.0) fail("commuter period must be > 0");
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
      if (cls.cache_kb < 0.0) {
        fail("node class '" + cls.name + "' cache_kb must be >= 0");
      }
      if (cls.speed < 0.0) {
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
  if (zipf_theta < 0.0) fail("zipf theta must be >= 0");
  if (!(request_rate_multiplier > 0.0)) {
    fail("request rate multiplier must be > 0");
  }
  if (zipf_drift_per_s != 0.0 && zipf_drift_step_s <= 0.0) {
    fail("zipf drift step must be > 0 when drift is enabled");
  }
  if (mean_request_interval_s <= 0.0) fail("request interval must be > 0");
  if (updates_enabled && mean_update_interval_s <= 0.0) {
    fail("update interval must be > 0");
  }
  if (cache_fraction < 0.0 || cache_fraction > 1.0) {
    fail("cache fraction must be in [0, 1]");
  }
  if (ttr_alpha < 0.0 || ttr_alpha > 1.0) fail("ttr alpha must be in [0, 1]");
  if (ttr_initial_s < 0.0) fail("initial TTR must be >= 0");
  if (push_retries < 0) fail("push retries must be >= 0");
  if (use_beacons) {
    if (beacon_interval_s <= 0.0) fail("beacon interval must be > 0");
    if (neighbor_lifetime_s < beacon_interval_s) {
      fail("neighbor lifetime must cover at least one beacon interval");
    }
  }
  if (region_flood_ttl < 1) fail("region flood TTL must be >= 1");
  if (network_flood_ttl < 1) fail("network flood TTL must be >= 1");
  if (max_route_hops < 1) fail("route hop budget must be >= 1");
  if (regional_timeout_s <= 0.0 || remote_timeout_s <= 0.0) {
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
    if (ch.loss_p < 0.0 || ch.loss_p > 1.0) {
      fail("channel loss probability must be in [0, 1]");
    }
    if (ch.edge_start_fraction < 0.0 || ch.edge_start_fraction > 1.0) {
      fail("channel edge_start_fraction must be in [0, 1]");
    }
    if (ch.edge_loss_p < 0.0 || ch.edge_loss_p > 1.0) {
      fail("channel edge loss probability must be in [0, 1]");
    }
    if (ch.ge_enter_burst_p < 0.0 || ch.ge_enter_burst_p > 1.0) {
      fail("channel burst-entry probability must be in [0, 1]");
    }
    if (ch.ge_mean_burst_frames < 0.0) {
      fail("channel mean burst length must be >= 0");
    }
    if (ch.ge_loss_good < 0.0 || ch.ge_loss_good > 1.0 ||
        ch.ge_loss_bad < 0.0 || ch.ge_loss_bad > 1.0) {
      fail("channel per-state loss probabilities must be in [0, 1]");
    }
    for (const channel::Blackout& b : ch.blackouts) {
      if (b.end_s < b.start_s) fail("channel blackout window must not end before it starts");
    }
    for (const channel::Partition& w : ch.partitions) {
      if (w.end_s < w.start_s) fail("channel partition window must not end before it starts");
    }
  }
  if (dynamic_regions) {
    if (region_reconfig_interval_s <= 0.0) {
      fail("region reconfig interval must be > 0");
    }
    if (max_region_peers <= min_region_peers) {
      fail("max_region_peers must exceed min_region_peers");
    }
  }
  if (prefetch_count > catalog.n_items) {
    fail("prefetch_count cannot exceed the catalog size");
  }
  if (crash_rate_per_s < 0.0) fail("crash rate must be >= 0");
  if (join_rate_per_s < 0.0) fail("join rate must be >= 0");
  if (graceful_fraction < 0.0 || graceful_fraction > 1.0) {
    fail("graceful fraction must be in [0, 1]");
  }
  if (warmup_s < 0.0 || measure_s <= 0.0) {
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
  if (transport_pace != "asap" && transport_pace != "realtime") {
    fail("transport_pace must be 'asap' or 'realtime'");
  }
  if (!(transport_speedup > 0.0)) fail("transport_speedup must be > 0");
  if (transport_status_interval_s < 0.0) {
    fail("transport_status_interval must be >= 0");
  }
  if (!(transport_retry_s > 0.0)) fail("transport_retry must be > 0");
  if (!(transport_timeout_s > transport_retry_s)) {
    fail("transport_timeout must exceed transport_retry");
  }
  if (transport_linger_s < 0.0) fail("transport_linger must be >= 0");
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
