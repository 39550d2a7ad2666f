#include "core/config_io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <stdexcept>

namespace precinct::core {

namespace {

/// Parse the `blackout` value: `node:start:end` windows joined by `;`.
std::vector<channel::Blackout> parse_blackouts(const std::string& spec) {
  std::vector<channel::Blackout> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t semi = std::min(spec.find(';', pos), spec.size());
    const std::string window = spec.substr(pos, semi - pos);
    pos = semi + 1;
    if (window.empty()) continue;
    const std::size_t c1 = window.find(':');
    const std::size_t c2 =
        c1 == std::string::npos ? std::string::npos : window.find(':', c1 + 1);
    if (c2 == std::string::npos) {
      throw std::invalid_argument(
          "config: blackout window '" + window +
          "' must be node:start:end (';'-separated list)");
    }
    channel::Blackout b;
    b.node = parse_integer<std::uint32_t>(window.substr(0, c1), "blackout");
    try {
      b.start_s = std::stod(window.substr(c1 + 1, c2 - c1 - 1));
      b.end_s = std::stod(window.substr(c2 + 1));
      out.push_back(b);
    } catch (const std::invalid_argument&) {
      throw std::invalid_argument("config: blackout window '" + window +
                                  "' has a non-numeric field");
    }
  }
  return out;
}

void set_retrieval(PrecinctConfig& c, const std::string& name) {
  for (const RetrievalKind kind :
       {RetrievalKind::kPrecinct, RetrievalKind::kFlooding,
        RetrievalKind::kExpandingRing}) {
    if (name == to_string(kind)) {
      c.retrieval = kind;
      return;
    }
  }
  throw std::invalid_argument(
      "config: key 'retrieval' names no built-in scheme: '" + name +
      "' (built-in: precinct, flooding, expanding-ring)");
}

void set_consistency(PrecinctConfig& c, const std::string& name) {
  try {
    c.consistency = consistency::mode_from_string(name);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument(
        "config: key 'consistency' names no built-in scheme: '" + name +
        "' (built-in: none, plain-push, pull-every-time, "
        "push-adaptive-pull)");
  }
  if (c.consistency != consistency::Mode::kNone) c.updates_enabled = true;
}

/// Apply one `class.<name>.<attr>` key to the heterogeneous-fleet list.
/// KvFile iterates keys sorted, and validate() restricts class names to
/// [A-Za-z0-9_] (every allowed character orders after '.'), so appending
/// classes in key order yields the canonical name-sorted list.
void apply_class_key(PrecinctConfig& c, const std::string& key,
                     const std::string& value) {
  const std::size_t name_start = std::string("class.").size();
  const std::size_t attr_dot = key.rfind('.');
  if (attr_dot == std::string::npos || attr_dot <= name_start) {
    throw std::invalid_argument(
        "config: class key '" + key +
        "' must be class.<name>.<count|cache_kb|speed|fixed>");
  }
  const std::string name = key.substr(name_start, attr_dot - name_start);
  const std::string attr = key.substr(attr_dot + 1);
  NodeClassConfig* cls = nullptr;
  for (NodeClassConfig& existing : c.node_classes) {
    if (existing.name == name) cls = &existing;
  }
  if (cls == nullptr) {
    NodeClassConfig fresh;
    fresh.name = name;
    c.node_classes.push_back(std::move(fresh));
    cls = &c.node_classes.back();
  }
  if (attr == "count") {
    cls->count = parse_integer<std::size_t>(value, key);
  } else if (attr == "cache_kb") {
    cls->cache_kb = parse_number(value, key);
  } else if (attr == "speed") {
    cls->speed = parse_number(value, key);
  } else if (attr == "fixed") {
    cls->fixed = parse_bool(value, key);
  } else {
    throw std::invalid_argument(
        "config: class key '" + key +
        "' must be class.<name>.<count|cache_kb|speed|fixed>");
  }
}

}  // namespace

double parse_number(const std::string& value, const std::string& key) {
  // std::stod also reads nan and inf, which no key means.
  try {
    std::size_t used = 0;
    const double parsed = std::stod(value, &used);
    if (used == value.size() && std::isfinite(parsed)) return parsed;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("'" + key + "' needs a finite number, got '" +
                              value + "'");
}

bool parse_bool(const std::string& value, const std::string& key) {
  if (value == "true" || value == "1" || value == "yes" || value == "on") {
    return true;
  }
  if (value == "false" || value == "0" || value == "no" || value == "off") {
    return false;
  }
  throw std::invalid_argument("'" + key +
                              "' needs true/false, yes/no, on/off or 1/0, "
                              "got '" + value + "'");
}

std::size_t PrecinctConfig::class_of(std::size_t node) const noexcept {
  std::size_t offset = 0;
  for (std::size_t k = 0; k < node_classes.size(); ++k) {
    offset += node_classes[k].count;
    if (node < offset) return k;
  }
  return node_classes.empty() ? 0 : node_classes.size() - 1;
}

bool PrecinctConfig::has_fixed_nodes() const noexcept {
  for (const NodeClassConfig& cls : node_classes) {
    if (cls.fixed) return true;
  }
  return false;
}

PrecinctConfig::PrecinctConfig() = default;
PrecinctConfig::PrecinctConfig(const PrecinctConfig&) = default;
PrecinctConfig::PrecinctConfig(PrecinctConfig&&) noexcept = default;
PrecinctConfig& PrecinctConfig::operator=(const PrecinctConfig&) = default;
PrecinctConfig& PrecinctConfig::operator=(PrecinctConfig&&) noexcept = default;
PrecinctConfig::~PrecinctConfig() = default;

PrecinctConfig config_from_kv(const support::KvFile& kv,
                              const PrecinctConfig& base) {
  PrecinctConfig c = base;
  // One handler per key; the map doubles as the list of valid keys.
  const std::map<std::string, std::function<void(const std::string&)>>
      handlers{
          {"nodes",
           [&](const std::string& v) {
             c.n_nodes = parse_integer<std::size_t>(v, "nodes");
           }},
          {"area",
           [&](const std::string& v) {
             const double side = parse_number(v, "area");
             c.area = {{0.0, 0.0}, {side, side}};
           }},
          {"regions",
           [&](const std::string& v) {
             c.regions_x = c.regions_y =
                 parse_integer<std::uint32_t>(v, "regions");
           }},
          {"range",
           [&](const std::string& v) {
             c.wireless.range_m = parse_number(v, "range");
           }},
          {"mobility",
           [&](const std::string& v) {
             c.mobility_model = v;
             c.mobile = v != "static";
           }},
          {"speed_max",
           [&](const std::string& v) {
             c.v_max = parse_number(v, "speed_max");
           }},
          {"speed_min",
           [&](const std::string& v) {
             c.v_min = parse_number(v, "speed_min");
           }},
          {"pause",
           [&](const std::string& v) {
             c.pause_s = parse_number(v, "pause");
           }},
          {"street_spacing",
           [&](const std::string& v) {
             c.street_spacing_m = parse_number(v, "street_spacing");
           }},
          {"turn_prob",
           [&](const std::string& v) {
             c.turn_probability = parse_number(v, "turn_prob");
           }},
          {"commuter_period",
           [&](const std::string& v) {
             c.commuter_period_s = parse_number(v, "commuter_period");
           }},
          {"commuter_hubs",
           [&](const std::string& v) {
             c.commuter_hubs = parse_integer<std::size_t>(v, "commuter_hubs");
           }},
          {"items",
           [&](const std::string& v) {
             c.catalog.n_items = parse_integer<std::size_t>(v, "items");
           }},
          {"min_item_bytes",
           [&](const std::string& v) {
             c.catalog.min_item_bytes =
                 parse_integer<std::size_t>(v, "min_item_bytes");
           }},
          {"max_item_bytes",
           [&](const std::string& v) {
             c.catalog.max_item_bytes =
                 parse_integer<std::size_t>(v, "max_item_bytes");
           }},
          {"request_interval",
           [&](const std::string& v) {
             c.mean_request_interval_s = parse_number(v, "request_interval");
           }},
          {"update_interval",
           [&](const std::string& v) {
             c.mean_update_interval_s = parse_number(v, "update_interval");
           }},
          {"updates",
           [&](const std::string& v) {
             c.updates_enabled = parse_bool(v, "updates");
           }},
          {"zipf",
           [&](const std::string& v) {
             c.zipf_theta = parse_number(v, "zipf");
           }},
          {"rate_multiplier",
           [&](const std::string& v) {
             c.request_rate_multiplier = parse_number(v, "rate_multiplier");
           }},
          {"zipf_drift",
           [&](const std::string& v) {
             c.zipf_drift_per_s = parse_number(v, "zipf_drift");
           }},
          {"zipf_drift_step",
           [&](const std::string& v) {
             c.zipf_drift_step_s = parse_number(v, "zipf_drift_step");
           }},
          {"policy", [&](const std::string& v) { c.cache_policy = v; }},
          {"cache",
           [&](const std::string& v) {
             c.cache_fraction = parse_number(v, "cache");
           }},
          {"prefetch",
           [&](const std::string& v) {
             c.prefetch_count = parse_integer<std::size_t>(v, "prefetch");
           }},
          {"consistency",
           [&](const std::string& v) { set_consistency(c, v); }},
          {"ttr_alpha",
           [&](const std::string& v) {
             c.ttr_alpha = parse_number(v, "ttr_alpha");
           }},
          {"push_retries",
           [&](const std::string& v) {
             c.push_retries = parse_integer<int>(v, "push_retries");
           }},
          {"retrieval",
           [&](const std::string& v) { set_retrieval(c, v); }},
          {"replicas",
           [&](const std::string& v) {
             c.replica_count = parse_integer<std::size_t>(v, "replicas");
           }},
          {"retries",
           [&](const std::string& v) {
             c.request_retries = parse_integer<int>(v, "retries");
           }},
          {"channel",
           [&](const std::string& v) { c.wireless.channel.model = v; }},
          {"blackout",
           [&](const std::string& v) {
             c.wireless.channel.blackouts = parse_blackouts(v);
           }},
          {"loss",
           [&](const std::string& v) {
             c.wireless.channel.loss_p = parse_number(v, "loss");
           }},
          {"edge_start",
           [&](const std::string& v) {
             c.wireless.channel.edge_start_fraction =
                 parse_number(v, "edge_start");
           }},
          {"edge_loss",
           [&](const std::string& v) {
             c.wireless.channel.edge_loss_p = parse_number(v, "edge_loss");
           }},
          {"ge_enter_burst",
           [&](const std::string& v) {
             c.wireless.channel.ge_enter_burst_p =
                 parse_number(v, "ge_enter_burst");
           }},
          {"ge_burst_frames",
           [&](const std::string& v) {
             c.wireless.channel.ge_mean_burst_frames =
                 parse_number(v, "ge_burst_frames");
           }},
          {"ge_loss_good",
           [&](const std::string& v) {
             c.wireless.channel.ge_loss_good = parse_number(v, "ge_loss_good");
           }},
          {"ge_loss_bad",
           [&](const std::string& v) {
             c.wireless.channel.ge_loss_bad = parse_number(v, "ge_loss_bad");
           }},
          {"crash_rate",
           [&](const std::string& v) {
             c.crash_rate_per_s = parse_number(v, "crash_rate");
           }},
          {"join_rate",
           [&](const std::string& v) {
             c.join_rate_per_s = parse_number(v, "join_rate");
           }},
          {"graceful_fraction",
           [&](const std::string& v) {
             c.graceful_fraction = parse_number(v, "graceful_fraction");
           }},
          {"dynamic_regions",
           [&](const std::string& v) {
             c.dynamic_regions = parse_bool(v, "dynamic_regions");
           }},
          {"use_beacons",
           [&](const std::string& v) {
             c.use_beacons = parse_bool(v, "use_beacons");
           }},
          {"beacon_interval",
           [&](const std::string& v) {
             c.beacon_interval_s = parse_number(v, "beacon_interval");
           }},
          {"neighbor_lifetime",
           [&](const std::string& v) {
             c.neighbor_lifetime_s = parse_number(v, "neighbor_lifetime");
           }},
          {"hotspot_interval",
           [&](const std::string& v) {
             c.hotspot_rotation_interval_s =
                 parse_number(v, "hotspot_interval");
           }},
          {"hotspot_shift",
           [&](const std::string& v) {
             c.hotspot_shift = parse_integer<std::size_t>(v, "hotspot_shift");
           }},
          {"warmup",
           [&](const std::string& v) {
             c.warmup_s = parse_number(v, "warmup");
           }},
          {"measure",
           [&](const std::string& v) {
             c.measure_s = parse_number(v, "measure");
           }},
          {"shards",
           [&](const std::string& v) {
             c.shards = parse_integer<std::uint32_t>(v, "shards");
           }},
          {"workload_script",
           [&](const std::string& v) { c.workload_script = v; }},
          {"transport_base_port",
           [&](const std::string& v) {
             c.transport_base_port =
                 parse_integer<std::uint32_t>(v, "transport_base_port");
           }},
          {"transport_status_interval",
           [&](const std::string& v) {
             c.transport_status_interval_s =
                 parse_number(v, "transport_status_interval");
           }},
          {"transport_retry",
           [&](const std::string& v) {
             c.transport_retry_s = parse_number(v, "transport_retry");
           }},
          {"transport_timeout",
           [&](const std::string& v) {
             c.transport_timeout_s = parse_number(v, "transport_timeout");
           }},
          {"transport_linger",
           [&](const std::string& v) {
             c.transport_linger_s = parse_number(v, "transport_linger");
           }},
          {"seed",
           [&](const std::string& v) {
             c.seed = parse_integer<std::uint64_t>(v, "seed");
           }},
          {"check", [&](const std::string& v) { c.check = v; }},
          {"check_stride",
           [&](const std::string& v) {
             c.check_stride = parse_integer<std::uint64_t>(v, "check_stride");
           }},
      };
  bool saw_class = false;
  bool saw_nodes = false;
  for (const auto& [key, value] : kv.values()) {
    if (key.rfind("class.", 0) == 0) {
      if (!saw_class) {
        // The first class key replaces any fleet inherited from `base`.
        c.node_classes.clear();
        saw_class = true;
      }
      apply_class_key(c, key, value);
      continue;
    }
    if (key == "nodes") saw_nodes = true;
    const auto it = handlers.find(key);
    if (it == handlers.end()) {
      throw std::invalid_argument("config: unknown key '" + key + "'");
    }
    it->second(value);
  }
  if (saw_class && !saw_nodes) {
    // Classes alone define the fleet size; an explicit `nodes` key must
    // instead agree with the class counts (validate() checks the sum).
    std::size_t total = 0;
    for (const NodeClassConfig& cls : c.node_classes) total += cls.count;
    c.n_nodes = total;
  }
  return c;
}

PrecinctConfig config_from_file(const std::string& path,
                                const PrecinctConfig& base) {
  return config_from_kv(support::KvFile::load(path), base);
}

PrecinctConfig config_from_flags(std::vector<std::string>& args,
                                 const PrecinctConfig& base) {
  // The keys precinct_sim exposes as flags; `_` is spelled `-` there.
  static const char* const kValueKeys[] = {
      "nodes", "area", "regions", "range", "mobility", "speed_max", "pause",
      "items", "request_interval", "zipf", "policy", "cache", "consistency",
      "update_interval", "ttr_alpha", "retrieval", "replicas", "retries",
      "channel", "loss", "crash_rate", "check", "check_stride", "shards",
      "warmup", "measure", "seed"};
  static const char* const kSwitchKeys[] = {"updates", "dynamic_regions"};
  const auto key_of = [](const std::string& arg, const auto& keys) {
    for (const char* key : keys) {
      std::string flag = std::string("--") + key;
      std::replace(flag.begin(), flag.end(), '_', '-');
      if (arg == flag) return std::string(key);
    }
    return std::string();
  };
  support::KvFile kv;
  for (auto it = args.begin(); it != args.end();) {
    if (const std::string key = key_of(*it, kSwitchKeys); !key.empty()) {
      kv.set(key, "true");
      it = args.erase(it);
    } else if (const std::string key = key_of(*it, kValueKeys);
               !key.empty()) {
      if (std::next(it) == args.end()) {
        throw std::invalid_argument(*it + " needs a value");
      }
      kv.set(key, *std::next(it));
      it = args.erase(it, std::next(it, 2));
    } else {
      ++it;
    }
  }
  return config_from_kv(kv, base);
}

namespace {

[[noreturn]] void fail_unwritable(const std::string& what) {
  throw std::invalid_argument("config: not writable: " + what);
}

/// Shortest round-trip decimal form: re-parsing with strtod recovers the
/// exact double, so write -> read -> write is a fixed point.
std::string format_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string format_blackouts(const std::vector<channel::Blackout>& windows) {
  std::string out;
  for (const channel::Blackout& b : windows) {
    if (!out.empty()) out += ';';
    out += std::to_string(b.node) + ':' + format_number(b.start_s) + ':' +
           format_number(b.end_s);
  }
  return out;
}

}  // namespace

std::map<std::string, std::string> config_to_kv(const PrecinctConfig& c) {
  // Only configurations expressible in the key schema can be written
  // back; anything the reader cannot reconstruct is an error here rather
  // than a silent lossy save.
  if (c.area.min.x != 0.0 || c.area.min.y != 0.0 ||
      c.area.width() != c.area.height()) {
    fail_unwritable("area must be a square anchored at the origin");
  }
  if (c.regions_x != c.regions_y) {
    fail_unwritable("region grid must be square (regions_x == regions_y)");
  }
  if (!c.wireless.channel.partitions.empty()) {
    fail_unwritable("partition windows have no config key");
  }
  std::map<std::string, std::string> kv;
  kv["nodes"] = std::to_string(c.n_nodes);
  kv["area"] = format_number(c.area.width());
  kv["regions"] = std::to_string(c.regions_x);
  kv["range"] = format_number(c.wireless.range_m);
  kv["mobility"] = c.mobile ? c.mobility_model : "static";
  kv["speed_max"] = format_number(c.v_max);
  kv["speed_min"] = format_number(c.v_min);
  kv["pause"] = format_number(c.pause_s);
  kv["street_spacing"] = format_number(c.street_spacing_m);
  kv["turn_prob"] = format_number(c.turn_probability);
  kv["commuter_period"] = format_number(c.commuter_period_s);
  kv["commuter_hubs"] = std::to_string(c.commuter_hubs);
  for (const NodeClassConfig& cls : c.node_classes) {
    const std::string prefix = "class." + cls.name + ".";
    kv[prefix + "count"] = std::to_string(cls.count);
    kv[prefix + "cache_kb"] = format_number(cls.cache_kb);
    kv[prefix + "speed"] = format_number(cls.speed);
    kv[prefix + "fixed"] = cls.fixed ? "true" : "false";
  }
  kv["items"] = std::to_string(c.catalog.n_items);
  kv["min_item_bytes"] = std::to_string(c.catalog.min_item_bytes);
  kv["max_item_bytes"] = std::to_string(c.catalog.max_item_bytes);
  kv["request_interval"] = format_number(c.mean_request_interval_s);
  kv["update_interval"] = format_number(c.mean_update_interval_s);
  // Alphabetical replay order puts `consistency` before `updates`, so the
  // explicit flag below wins over set_consistency's implied enable.
  kv["updates"] = c.updates_enabled ? "true" : "false";
  kv["zipf"] = format_number(c.zipf_theta);
  kv["rate_multiplier"] = format_number(c.request_rate_multiplier);
  kv["zipf_drift"] = format_number(c.zipf_drift_per_s);
  kv["zipf_drift_step"] = format_number(c.zipf_drift_step_s);
  kv["policy"] = c.cache_policy;
  kv["cache"] = format_number(c.cache_fraction);
  kv["prefetch"] = std::to_string(c.prefetch_count);
  kv["consistency"] = consistency::to_string(c.consistency);
  kv["ttr_alpha"] = format_number(c.ttr_alpha);
  kv["push_retries"] = std::to_string(c.push_retries);
  kv["retrieval"] = to_string(c.retrieval);
  kv["replicas"] = std::to_string(c.replica_count);
  kv["retries"] = std::to_string(c.request_retries);
  kv["channel"] = c.wireless.channel.model;
  kv["loss"] = format_number(c.wireless.channel.loss_p);
  kv["edge_start"] = format_number(c.wireless.channel.edge_start_fraction);
  kv["edge_loss"] = format_number(c.wireless.channel.edge_loss_p);
  kv["ge_enter_burst"] = format_number(c.wireless.channel.ge_enter_burst_p);
  kv["ge_burst_frames"] =
      format_number(c.wireless.channel.ge_mean_burst_frames);
  kv["ge_loss_good"] = format_number(c.wireless.channel.ge_loss_good);
  kv["ge_loss_bad"] = format_number(c.wireless.channel.ge_loss_bad);
  if (!c.wireless.channel.blackouts.empty()) {
    kv["blackout"] = format_blackouts(c.wireless.channel.blackouts);
  }
  kv["crash_rate"] = format_number(c.crash_rate_per_s);
  kv["join_rate"] = format_number(c.join_rate_per_s);
  kv["graceful_fraction"] = format_number(c.graceful_fraction);
  kv["dynamic_regions"] = c.dynamic_regions ? "true" : "false";
  kv["use_beacons"] = c.use_beacons ? "true" : "false";
  kv["beacon_interval"] = format_number(c.beacon_interval_s);
  kv["neighbor_lifetime"] = format_number(c.neighbor_lifetime_s);
  kv["hotspot_interval"] = format_number(c.hotspot_rotation_interval_s);
  kv["hotspot_shift"] = std::to_string(c.hotspot_shift);
  kv["warmup"] = format_number(c.warmup_s);
  kv["measure"] = format_number(c.measure_s);
  kv["shards"] = std::to_string(c.shards);
  if (!c.workload_script.empty()) kv["workload_script"] = c.workload_script;
  kv["transport_base_port"] = std::to_string(c.transport_base_port);
  kv["transport_status_interval"] =
      format_number(c.transport_status_interval_s);
  kv["transport_retry"] = format_number(c.transport_retry_s);
  kv["transport_timeout"] = format_number(c.transport_timeout_s);
  kv["transport_linger"] = format_number(c.transport_linger_s);
  kv["seed"] = std::to_string(c.seed);
  if (!c.check.empty()) kv["check"] = c.check;
  kv["check_stride"] = std::to_string(c.check_stride);
  return kv;
}

std::string config_to_string(const PrecinctConfig& c) {
  std::string out;
  for (const auto& [key, value] : config_to_kv(c)) {
    out += key;
    out += " = ";
    out += value;
    out += '\n';
  }
  return out;
}

void config_to_file(const PrecinctConfig& c, const std::string& path) {
  const std::string text = config_to_string(c);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("config: cannot write '" + path + "'");
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != text.size() || !closed) {
    throw std::runtime_error("config: short write to '" + path + "'");
  }
}

}  // namespace precinct::core
