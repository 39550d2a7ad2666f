#include "core/config_io.hpp"

#include <algorithm>
#include <charconv>
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
                     const std::string& value, const support::KvFile& kv) {
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
    cls->cache_kb = kv.get_number(key, 0.0);
  } else if (attr == "speed") {
    cls->speed = kv.get_number(key, 0.0);
  } else if (attr == "fixed") {
    cls->fixed = kv.get_bool(key, false);
  } else {
    throw std::invalid_argument(
        "config: class key '" + key +
        "' must be class.<name>.<count|cache_kb|speed|fixed>");
  }
}

}  // namespace

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
           [&](const std::string&) {
             const double side = kv.get_number("area", 1200.0);
             c.area = {{0.0, 0.0}, {side, side}};
           }},
          {"regions",
           [&](const std::string& v) {
             c.regions_x = c.regions_y =
                 parse_integer<std::uint32_t>(v, "regions");
           }},
          {"range",
           [&](const std::string&) {
             c.wireless.range_m = kv.get_number("range", 250.0);
           }},
          {"mobility",
           [&](const std::string& v) {
             c.mobility_model = v;
             c.mobile = v != "static";
           }},
          {"speed_max",
           [&](const std::string&) {
             c.v_max = kv.get_number("speed_max", 6.0);
           }},
          {"speed_min",
           [&](const std::string&) {
             c.v_min = kv.get_number("speed_min", 0.5);
           }},
          {"pause",
           [&](const std::string&) {
             c.pause_s = kv.get_number("pause", 5.0);
           }},
          {"street_spacing",
           [&](const std::string&) {
             c.street_spacing_m = kv.get_number("street_spacing", 100.0);
           }},
          {"turn_prob",
           [&](const std::string&) {
             c.turn_probability = kv.get_number("turn_prob", 0.25);
           }},
          {"commuter_period",
           [&](const std::string&) {
             c.commuter_period_s = kv.get_number("commuter_period", 400.0);
           }},
          {"commuter_hubs",
           [&](const std::string& v) {
             c.commuter_hubs = parse_integer<std::size_t>(v, "commuter_hubs");
           }},
          {"items",
           [&](const std::string& v) {
             c.catalog.n_items = parse_integer<std::size_t>(v, "items");
           }},
          {"request_interval",
           [&](const std::string&) {
             c.mean_request_interval_s =
                 kv.get_number("request_interval", 30.0);
           }},
          {"update_interval",
           [&](const std::string&) {
             c.mean_update_interval_s = kv.get_number("update_interval", 30.0);
           }},
          {"updates",
           [&](const std::string&) {
             c.updates_enabled = kv.get_bool("updates", false);
           }},
          {"zipf",
           [&](const std::string&) {
             c.zipf_theta = kv.get_number("zipf", 0.8);
           }},
          {"rate_multiplier",
           [&](const std::string&) {
             c.request_rate_multiplier =
                 kv.get_number("rate_multiplier", 1.0);
           }},
          {"zipf_drift",
           [&](const std::string&) {
             c.zipf_drift_per_s = kv.get_number("zipf_drift", 0.0);
           }},
          {"zipf_drift_step",
           [&](const std::string&) {
             c.zipf_drift_step_s = kv.get_number("zipf_drift_step", 10.0);
           }},
          {"policy", [&](const std::string& v) { c.cache_policy = v; }},
          {"cache",
           [&](const std::string&) {
             c.cache_fraction = kv.get_number("cache", 0.02);
           }},
          {"prefetch",
           [&](const std::string& v) {
             c.prefetch_count = parse_integer<std::size_t>(v, "prefetch");
           }},
          {"consistency",
           [&](const std::string& v) { set_consistency(c, v); }},
          {"ttr_alpha",
           [&](const std::string&) {
             c.ttr_alpha = kv.get_number("ttr_alpha", 0.5);
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
           [&](const std::string&) {
             c.wireless.channel.loss_p = kv.get_number("loss", 0.0);
           }},
          {"edge_start",
           [&](const std::string&) {
             c.wireless.channel.edge_start_fraction =
                 kv.get_number("edge_start", 0.7);
           }},
          {"edge_loss",
           [&](const std::string&) {
             c.wireless.channel.edge_loss_p = kv.get_number("edge_loss", 0.8);
           }},
          {"ge_enter_burst",
           [&](const std::string&) {
             c.wireless.channel.ge_enter_burst_p =
                 kv.get_number("ge_enter_burst", 0.02);
           }},
          {"ge_burst_frames",
           [&](const std::string&) {
             c.wireless.channel.ge_mean_burst_frames =
                 kv.get_number("ge_burst_frames", 5.0);
           }},
          {"ge_loss_good",
           [&](const std::string&) {
             c.wireless.channel.ge_loss_good =
                 kv.get_number("ge_loss_good", 0.0);
           }},
          {"ge_loss_bad",
           [&](const std::string&) {
             c.wireless.channel.ge_loss_bad =
                 kv.get_number("ge_loss_bad", 1.0);
           }},
          {"crash_rate",
           [&](const std::string&) {
             c.crash_rate_per_s = kv.get_number("crash_rate", 0.0);
           }},
          {"join_rate",
           [&](const std::string&) {
             c.join_rate_per_s = kv.get_number("join_rate", 0.0);
           }},
          {"graceful_fraction",
           [&](const std::string&) {
             c.graceful_fraction = kv.get_number("graceful_fraction", 1.0);
           }},
          {"dynamic_regions",
           [&](const std::string&) {
             c.dynamic_regions = kv.get_bool("dynamic_regions", false);
           }},
          {"use_beacons",
           [&](const std::string&) {
             c.use_beacons = kv.get_bool("use_beacons", false);
           }},
          {"beacon_interval",
           [&](const std::string&) {
             c.beacon_interval_s = kv.get_number("beacon_interval", 1.0);
           }},
          {"neighbor_lifetime",
           [&](const std::string&) {
             c.neighbor_lifetime_s = kv.get_number("neighbor_lifetime", 3.0);
           }},
          {"hotspot_interval",
           [&](const std::string&) {
             c.hotspot_rotation_interval_s =
                 kv.get_number("hotspot_interval", 0.0);
           }},
          {"hotspot_shift",
           [&](const std::string& v) {
             c.hotspot_shift = parse_integer<std::size_t>(v, "hotspot_shift");
           }},
          {"warmup",
           [&](const std::string&) {
             c.warmup_s = kv.get_number("warmup", 150.0);
           }},
          {"measure",
           [&](const std::string&) {
             c.measure_s = kv.get_number("measure", 900.0);
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
           [&](const std::string&) {
             c.transport_status_interval_s =
                 kv.get_number("transport_status_interval", 0.5);
           }},
          {"transport_retry",
           [&](const std::string&) {
             c.transport_retry_s = kv.get_number("transport_retry", 0.05);
           }},
          {"transport_timeout",
           [&](const std::string&) {
             c.transport_timeout_s = kv.get_number("transport_timeout", 30.0);
           }},
          {"transport_linger",
           [&](const std::string&) {
             c.transport_linger_s = kv.get_number("transport_linger", 5.0);
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
      apply_class_key(c, key, value, kv);
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
