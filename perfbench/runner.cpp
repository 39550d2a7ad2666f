// perfbench_runner: one run of one benchmark workload, printed as one JSON
// object on stdout.  run.py starts one process per run, so peak RSS and
// CPU time belong to that run alone and a stalled run can be killed.
//
//   perfbench_runner timed  <workload> <seed> [--short]
//   perfbench_runner traced <workload> <seed> [--short]   (serial only)
//   perfbench_runner oracle <workload> <seed> [--short]   (world/fleet only)
//   perfbench_runner calibrate
//
// timed:  set up several times (each set-up is a sample), then run with
//         tracing off: wall, CPU and peak RSS of the run phase, the
//         fingerprint digest, and the counters public accessors expose.
// traced: the serial stack composed from public constructors, with
//         counting decorators on the mobility and channel seams, driven in
//         1-simulated-second slices.  Its digest must equal the timed one.
// oracle: the in-process K=1 reference a sharded or fleet run must equal.
// calibrate: the time of a fixed, simulator-independent kernel, which
//         run.py takes as the host's current speed.
//
// Every layer is measured from outside: the runner times its own calls
// into public entry points and reads public counters; no simulator source
// is instrumented.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sched.h>

#include "bench/bench_context.hpp"
#include "channel/channel_models.hpp"
#include "channel/channel_registry.hpp"
#include "core/engine.hpp"
#include "core/scenario.hpp"
#include "core/world_scenario.hpp"
#include "geo/region_table.hpp"
#include "mobility/random_waypoint.hpp"
#include "mobility/static_placement.hpp"
#include "net/wireless_net.hpp"
#include "probes.hpp"
#include "sim/simulator.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "transport/node_daemon.hpp"
#include "transport/udp_socket.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace pc = precinct::core;
namespace pn = precinct::net;
namespace pt = precinct::transport;
using precinct::support::JsonObject;

using Clock = std::chrono::steady_clock;
using Layers = std::map<std::string, double>;

/// Set-ups before the measured one; all of them are setup_s samples.
constexpr int kExtraSetups = 4;
/// Oracle calls recorded for the ns-per-call replay (16 B each).
constexpr std::size_t kRecordCap = std::size_t{1} << 20;
constexpr int kReplays = 5;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU of every thread of this process.
double cpu_seconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) {
    throw std::runtime_error("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// (stolen, total) CPU ticks of the whole host from /proc/stat; (0, 0)
/// where the kernel reports no steal column.
std::pair<std::uint64_t, std::uint64_t> host_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    std::uint64_t ticks = 0;
    if (!(in >> ticks)) return {0, 0};
    total += ticks;
    if (field == 7) steal = ticks;
  }
  return {steal, total};
}

/// Wall and process CPU time of one run phase, and the share of the
/// host's CPU time the hypervisor stole meanwhile (run.py leaves runs on a
/// contended host out of the medians).
class PhaseTimer {
 public:
  struct Reading {
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double steal_share = 0.0;
  };

  PhaseTimer() : ticks0_(host_ticks()), cpu0_(cpu_seconds()), t0_(Clock::now()) {}

  [[nodiscard]] Reading stop() const {
    Reading r;
    r.wall_s = since(t0_);
    r.cpu_s = cpu_seconds() - cpu0_;
    const auto [steal, total] = host_ticks();
    if (total > ticks0_.second) {
      r.steal_share = static_cast<double>(steal - ticks0_.first) /
                      static_cast<double>(total - ticks0_.second);
    }
    return r;
  }

 private:
  std::pair<std::uint64_t, std::uint64_t> ticks0_;
  double cpu0_;
  Clock::time_point t0_;
};

/// Pins this process, and every thread it starts later, to the CPU it is
/// running on.  On a KVM guest a wake-up on another vCPU goes through the
/// hypervisor: unpinned, a 2-worker world run's wall time swung up to 5x
/// with host steal; on one CPU it stays within a few percent.
void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu >= 0) CPU_SET(cpu, &set);
  if (cpu < 0 || sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("cannot pin the run to one CPU");
  }
}

/// Times a fixed amount of simulator-independent work: pseudo-random
/// read-modify-writes over an 8 MiB table.  run.py times it before and
/// after every run, in a process of its own so that its table does not
/// count towards the run's peak RSS, and scales the run's times by it.
double calibration_seconds() {
  constexpr std::size_t kSlots = std::size_t{1} << 20;
  std::vector<std::uint64_t> table(kSlots, 1);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::uint64_t acc = 0;
  const auto t0 = Clock::now();
  for (int rep = 0; rep < 6; ++rep) {
    for (std::size_t i = 0; i < kSlots; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const std::size_t j = x & (kSlots - 1);
      table[j] += x;
      acc += (table[j] & 1) != 0 ? table[(j * 31) & (kSlots - 1)] : i;
    }
  }
  const double seconds = since(t0);
  // Keep the result observable so the loop is not elided.
  if (acc == 0) std::fputs("calibration sum is 0\n", stderr);
  return seconds;
}

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM line in /proc/self/status");
}

/// FNV-1a 64 of a fingerprint, as 16 hex digits.
std::string digest(const std::string& text) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char ch : text) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  char buf[40];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.9g", i == 0 ? "" : ",", v[i]);
    out += buf;
  }
  return out + "]";
}

std::string json_object(const Layers& layers) {
  JsonObject o;
  for (const auto& [name, value] : layers) o.set(name, value);
  return o.str();
}

// ---- counters readable from outside after a run ---------------------------

/// Radio, routing and cache counters of one stack (summed over world
/// domains by calling once per domain).
void add_stack_layers(Layers& l, const precinct::sim::Simulator& sim,
                      const pn::WirelessNet& net,
                      const pc::PrecinctEngine& engine) {
  const pn::MessageStats& s = net.stats();
  l["sim.events"] += static_cast<double>(sim.events_executed());
  l["net.frames_sent"] += static_cast<double>(s.total_sends());
  for (std::size_t k = 0; k < pn::kPacketKindCount; ++k) {
    const auto kind = static_cast<pn::PacketKind>(k);
    l["net.deliveries"] += static_cast<double>(s.deliveries(kind));
    l[std::string("net.sends.") + pn::to_string(kind)] +=
        static_cast<double>(s.sends(kind));
  }
  l["net.frames_lost"] += static_cast<double>(net.frames_lost());
  // The epoch starts at 1; every bump is a grid rebuild or kill/revive.
  l["net.topology_epochs"] += static_cast<double>(net.topology_epoch() - 1);
  l["net.wire_bytes_sent"] += static_cast<double>(s.total_wire_bytes_sent());
  l["net.frame_pool_capacity"] +=
      static_cast<double>(net.frame_pool().capacity());
  l["routing.drops_void"] +=
      static_cast<double>(engine.routing_stats().drops_void);
  l["routing.drops_ttl"] += static_cast<double>(engine.routing_stats().drops_ttl);
  for (pn::NodeId p = 0; p < net.node_count(); ++p) {
    l["cache.entries"] += static_cast<double>(engine.cache_of(p).entry_count());
    l["cache.used_mib"] +=
        static_cast<double>(engine.cache_of(p).used_bytes()) / (1024.0 * 1024.0);
  }
}

void finish_stack_layers(Layers& l) {
  l["net.deliveries_per_send"] = ratio(l["net.deliveries"], l["net.frames_sent"]);
}

/// Measurement-window counters from Metrics.
void add_metric_layers(Layers& l, const pc::Metrics& m) {
  l["cache.byte_hit_ratio"] = m.byte_hit_ratio();
  l["consistency.messages"] = static_cast<double>(m.consistency_messages);
  l["consistency.polls"] = static_cast<double>(m.polls_sent);
  l["consistency.false_hit_ratio"] = m.false_hit_ratio();
  l["core.requests"] = static_cast<double>(m.requests_issued);
  l["core.failed_share"] = ratio(static_cast<double>(m.requests_failed),
                                 static_cast<double>(m.requests_issued));
  l["core.retransmissions"] = static_cast<double>(m.retransmissions);
  l["core.custody_handoffs"] = static_cast<double>(m.custody_handoffs);
}

/// max / mean of per-domain executed events: the slowest domain sets each
/// window, so this bounds the achievable speedup.
double event_imbalance(const std::vector<pc::Metrics>& per_domain) {
  double max_events = 0.0;
  double sum = 0.0;
  for (const pc::Metrics& m : per_domain) {
    const auto e = static_cast<double>(m.events_executed);
    max_events = std::max(max_events, e);
    sum += e;
  }
  return ratio(max_events, sum / static_cast<double>(per_domain.size()));
}

// ---- one run ----------------------------------------------------------------

struct RunResult {
  std::vector<double> setup_s;
  PhaseTimer::Reading run;
  std::string digest;
  Layers layers;
};

RunResult timed_serial(const Workload& w) {
  const pc::PrecinctConfig& c = w.config;
  RunResult r;
  for (int i = 0; i < kExtraSetups; ++i) {
    const auto t0 = Clock::now();
    pc::Scenario throwaway(c);
    throwaway.engine().initialize();
    r.setup_s.push_back(since(t0));
  }
  const auto t0 = Clock::now();
  pc::Scenario s(c);
  s.engine().initialize();
  r.setup_s.push_back(since(t0));

  // Scenario::run() after its initialize(), phase by phase.
  const PhaseTimer timer;
  s.simulator().run_until(c.warmup_s);
  s.engine().start_measurement();
  s.simulator().run_until(c.end_time_s());
  const pc::Metrics m = s.engine().finalize();
  r.run = timer.stop();

  r.digest = digest(pc::fingerprint(m));
  add_stack_layers(r.layers, s.simulator(), s.network(), s.engine());
  finish_stack_layers(r.layers);
  add_metric_layers(r.layers, m);
  return r;
}

RunResult timed_world(const Workload& w) {
  RunResult r;
  for (int i = 0; i < kExtraSetups; ++i) {
    const auto t0 = Clock::now();
    const pc::WorldShardedScenario throwaway(w.config);
    r.setup_s.push_back(since(t0));
  }
  const auto t0 = Clock::now();
  pc::WorldShardedScenario world(w.config);
  r.setup_s.push_back(since(t0));

  const PhaseTimer timer;
  const pc::WorldShardedMetrics m = world.run();  // throws on a ledger leak
  r.run = timer.stop();

  r.digest = digest(pc::world_fingerprint(m));
  Layers& l = r.layers;
  for (std::size_t d = 0; d < world.domain_count(); ++d) {
    pc::Scenario& domain = world.domain(d);
    add_stack_layers(l, domain.simulator(), domain.network(), domain.engine());
  }
  finish_stack_layers(l);
  add_metric_layers(l, m.aggregate);
  const auto windows = static_cast<double>(m.windows);
  l["sim.shard.windows"] = windows;
  l["sim.shard.us_per_window"] = ratio(r.run.wall_s * 1e6, windows);
  l["sim.shard.messages_per_window"] =
      ratio(static_cast<double>(m.messages_merged), windows);
  l["sim.shard.frames_posted"] = static_cast<double>(m.frames_posted);
  l["sim.shard.deltas_posted"] = static_cast<double>(m.deltas_posted);
  l["sim.shard.domain_event_imbalance"] = event_imbalance(m.per_domain);
  return r;
}

/// n distinct loopback addresses on ports the OS assigned: every probe is
/// bound while the ports are read, so they cannot collide with each other.
std::vector<pt::UdpAddress> loopback_peers(std::uint32_t n) {
  std::vector<pt::UdpSocket> probes;
  probes.reserve(n);
  std::vector<pt::UdpAddress> peers;
  for (std::uint32_t d = 0; d < n; ++d) {
    probes.emplace_back(pt::UdpAddress{pt::kLoopbackHost, 0});
    peers.push_back({pt::kLoopbackHost, probes.back().local_port()});
  }
  return peers;
}

struct FleetResult {
  double setup_s = 0.0;  ///< the slowest daemon's construction
  PhaseTimer::Reading run;
  std::vector<pt::DomainReport> reports;
};

/// One NodeDaemon per domain, each constructed and run on its own thread;
/// the run phase starts once every daemon is constructed.  With
/// `run == false` the daemons are only constructed (a set-up sample).
FleetResult run_fleet(const pc::PrecinctConfig& config, bool run) {
  const std::uint32_t n = config.regions_x;
  const std::vector<pt::UdpAddress> peers = loopback_peers(n);
  FleetResult r;
  r.reports.resize(n);
  std::vector<std::unique_ptr<pt::NodeDaemon>> daemons(n);
  std::vector<double> setup(n, 0.0);
  std::vector<std::string> errors(n);
  std::atomic<bool> construct_failed{false};
  std::barrier<> constructed(static_cast<std::ptrdiff_t>(n) + 1);

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::uint32_t d = 0; d < n; ++d) {
    threads.emplace_back([&, d] {
      try {
        pt::NodeDaemon::Options opts;
        opts.config = config;
        opts.domain = d;
        opts.peers = peers;
        const auto t0 = Clock::now();
        daemons[d] = std::make_unique<pt::NodeDaemon>(opts);
        setup[d] = since(t0);
      } catch (const std::exception& e) {
        errors[d] = std::string("construction: ") + e.what();
        construct_failed = true;
      }
      constructed.arrive_and_wait();
      if (!run || construct_failed) return;
      try {
        if (daemons[d]->run([] { return false; }) !=
            pt::NodeDaemon::Outcome::kDone) {
          errors[d] = "stopped before the horizon";
          return;
        }
        r.reports[d] = daemons[d]->report();
      } catch (const std::exception& e) {
        daemons[d]->abort(e.what());
        errors[d] = e.what();
      }
    });
  }
  constructed.arrive_and_wait();
  const PhaseTimer timer;
  for (std::thread& t : threads) t.join();
  r.run = timer.stop();

  for (std::uint32_t d = 0; d < n; ++d) {
    if (!errors[d].empty()) {
      throw std::runtime_error("daemon " + std::to_string(d) + ": " +
                               errors[d]);
    }
  }
  r.setup_s = *std::max_element(setup.begin(), setup.end());
  return r;
}

RunResult timed_fleet(const Workload& w) {
  RunResult r;
  for (int i = 0; i < kExtraSetups; ++i) {
    r.setup_s.push_back(run_fleet(w.config, /*run=*/false).setup_s);
  }
  const FleetResult f = run_fleet(w.config, /*run=*/true);
  r.setup_s.push_back(f.setup_s);
  r.run = f.run;

  pt::TransportCounters sum;
  std::vector<pc::Metrics> per_domain;
  for (const pt::DomainReport& rep : f.reports) {
    const pt::TransportCounters& c = rep.counters;
    sum.frames_posted += c.frames_posted;
    sum.frames_processed += c.frames_processed;
    sum.frames_beyond_horizon += c.frames_beyond_horizon;
    sum.deltas_posted += c.deltas_posted;
    sum.deltas_processed += c.deltas_processed;
    sum.deltas_beyond_horizon += c.deltas_beyond_horizon;
    sum.messages_merged += c.messages_merged;
    sum.datagrams_sent += c.datagrams_sent;
    sum.datagram_bytes_sent += c.datagram_bytes_sent;
    sum.retransmits += c.retransmits;
    sum.nacks_sent += c.nacks_sent;
    sum.duplicates_dropped += c.duplicates_dropped;
    per_domain.push_back(rep.metrics);
  }
  // The fleet's cross-domain conservation audit (what precinct_ctl runs
  // over status files): every message not due past the horizon executed.
  if (sum.frames_processed != sum.frames_posted - sum.frames_beyond_horizon ||
      sum.deltas_processed != sum.deltas_posted - sum.deltas_beyond_horizon) {
    throw std::logic_error("fleet cross-domain conservation violated");
  }
  r.digest = digest(pt::fleet_fingerprint(f.reports));

  const pc::Metrics merged = pc::merge_metrics(per_domain);
  Layers& l = r.layers;
  add_metric_layers(l, merged);
  l["sim.events"] = static_cast<double>(merged.events_executed);
  l["sim.shard.domain_event_imbalance"] = event_imbalance(per_domain);
  const auto windows = static_cast<double>(f.reports.front().counters.windows);
  const auto datagrams = static_cast<double>(sum.datagrams_sent);
  l["transport.windows"] = windows;
  l["transport.us_per_window"] = ratio(r.run.wall_s * 1e6, windows);
  l["transport.datagrams_sent"] = datagrams;
  l["transport.datagrams_per_message"] =
      ratio(datagrams, static_cast<double>(sum.messages_merged));
  l["transport.bytes_per_wire_byte"] =
      ratio(static_cast<double>(sum.datagram_bytes_sent),
            static_cast<double>(merged.wire_bytes_sent));
  l["transport.retransmits"] = static_cast<double>(sum.retransmits);
  l["transport.nacks"] = static_cast<double>(sum.nacks_sent);
  l["transport.duplicates_dropped"] = static_cast<double>(sum.duplicates_dropped);
  return r;
}

RunResult oracle(const Workload& w) {
  pc::PrecinctConfig c = w.config;
  c.shards = 1;
  RunResult r;
  const PhaseTimer timer;
  const pc::WorldShardedMetrics m = pc::run_world_scenario(c);
  r.run = timer.stop();
  r.digest = digest(w.shape == Shape::kFleet ? pt::fleet_fingerprint(m)
                                             : pc::world_fingerprint(m));
  return r;
}

// ---- the traced serial stack ------------------------------------------------

/// Mirrors Scenario's homogeneous-fleet mobility for the two models the
/// serial workloads use (same seed salt, so the same trajectories).
std::unique_ptr<precinct::mobility::MobilityModel> make_mobility(
    const pc::PrecinctConfig& c) {
  const std::uint64_t seed = precinct::support::hash_combine(c.seed, 0x0b17);
  if (!c.mobile || c.mobility_model == "static") {
    return std::make_unique<precinct::mobility::StaticPlacement>(
        precinct::mobility::StaticPlacement::uniform(c.n_nodes, c.area, seed));
  }
  if (c.mobility_model == "random-waypoint") {
    precinct::mobility::RandomWaypointConfig rwp;
    rwp.area = c.area;
    rwp.v_min = c.v_min;
    rwp.v_max = c.v_max;
    rwp.pause_s = c.pause_s;
    return std::make_unique<precinct::mobility::RandomWaypoint>(c.n_nodes, rwp,
                                                                seed);
  }
  throw std::invalid_argument("traced run: unsupported mobility model '" +
                              c.mobility_model + "'");
}

/// Registry name of the counting wrapper around `inner` (registered once).
std::string counted_channel(const std::string& inner) {
  namespace ch = precinct::channel;
  static std::once_flag once;
  std::call_once(once, [] {
    ch::ChannelRegistry& registry = ch::ChannelRegistry::instance();
    registry.register_model("counted-perfect", [](const ch::ChannelConfig&) {
      return std::make_unique<CountingChannel>(
          std::make_unique<ch::PerfectChannel>());
    });
    registry.register_model("counted-bernoulli",
                            [](const ch::ChannelConfig& config) {
                              return std::make_unique<CountingChannel>(
                                  std::make_unique<ch::BernoulliLoss>(config));
                            });
  });
  if (inner != "perfect" && inner != "bernoulli") {
    throw std::invalid_argument("traced run: unsupported channel model '" +
                                inner + "'");
  }
  return "counted-" + inner;
}

/// Scenario's constructor, rebuilt from public constructors with the
/// decorators attached.  Members in Scenario's order, so they are
/// destroyed in the same order.
struct TracedStack {
  explicit TracedStack(const pc::PrecinctConfig& config)
      : catalog(config.catalog,
                precinct::support::hash_combine(config.seed, 0xCA7A)),
        mobility(std::make_unique<CountingMobility>(make_mobility(config),
                                                    kRecordCap)) {
    pn::WirelessConfig wireless = config.wireless;
    wireless.area = config.area;
    wireless.max_node_speed_mps =
        std::max(wireless.max_node_speed_mps, 1.25 * config.v_max);
    wireless.channel.model = counted_channel(config.wireless.channel.model);
    net = std::make_unique<pn::WirelessNet>(
        sim, *mobility, wireless, config.energy_model,
        precinct::support::hash_combine(config.seed, 0x2ad0));
    engine = std::make_unique<pc::PrecinctEngine>(
        config, sim, *net,
        precinct::geo::RegionTable::grid(config.area, config.regions_x,
                                         config.regions_y),
        catalog);
  }

  precinct::sim::Simulator sim;
  precinct::workload::DataCatalog catalog;
  std::unique_ptr<CountingMobility> mobility;
  std::unique_ptr<pn::WirelessNet> net;
  std::unique_ptr<pc::PrecinctEngine> engine;
};

/// Replays the recorded oracle stream against fresh same-seed models, one
/// timed batch per replay; median ns per call.
double replay_ns_per_call(const pc::PrecinctConfig& c,
                          const std::vector<CountingMobility::Call>& stream) {
  if (stream.empty()) return 0.0;
  std::vector<double> ns;
  double sink = 0.0;
  for (int rep = 0; rep < kReplays; ++rep) {
    const std::unique_ptr<precinct::mobility::MobilityModel> model =
        make_mobility(c);
    const auto t0 = Clock::now();
    for (const CountingMobility::Call& call : stream) {
      if (call.speed) {
        sink += model->speed_at(call.node, call.t);
      } else {
        const precinct::geo::Point p = model->position_at(call.node, call.t);
        sink += p.x + p.y;
      }
    }
    ns.push_back(since(t0) * 1e9 / static_cast<double>(stream.size()));
  }
  // Keep the replayed results observable so the loop is not elided.
  if (std::isnan(sink)) std::fputs("replay produced NaN\n", stderr);
  return median(ns);
}

/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<double>& sorted, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

RunResult traced_serial(const Workload& w) {
  const pc::PrecinctConfig& c = w.config;
  RunResult r;
  TracedStack stack(c);
  const auto i0 = Clock::now();
  stack.engine->initialize();
  Layers& l = r.layers;
  l["core.init_s"] = since(i0);

  std::vector<double> slice_ms;
  std::size_t pending_max = stack.sim.pending();
  double now = 0.0;
  const auto run_phase = [&](double phase_end) {
    while (now < phase_end) {
      const double next = std::min(std::floor(now) + 1.0, phase_end);
      const auto t0 = Clock::now();
      stack.sim.run_until(next);
      slice_ms.push_back(since(t0) * 1e3);
      pending_max = std::max(pending_max, stack.sim.pending());
      now = next;
    }
  };
  const PhaseTimer timer;
  run_phase(c.warmup_s);
  stack.engine->start_measurement();
  run_phase(c.end_time_s());
  const pc::Metrics m = stack.engine->finalize();
  r.run = timer.stop();
  r.digest = digest(pc::fingerprint(m));

  add_stack_layers(l, stack.sim, *stack.net, *stack.engine);
  finish_stack_layers(l);
  add_metric_layers(l, m);

  std::sort(slice_ms.begin(), slice_ms.end());
  // The tail is the highest percentile with at least 10 slices beyond it.
  double tail_pct = 50.0;
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if ((1.0 - p / 100.0) * static_cast<double>(slice_ms.size()) >= 10.0) {
      tail_pct = p;
      break;
    }
  }
  l["sim.slice_ms.p50"] = percentile(slice_ms, 50.0);
  l["sim.slice_ms.tail"] = percentile(slice_ms, tail_pct);
  l["sim.slice_ms.tail_pct"] = tail_pct;
  l["sim.pending_max"] = static_cast<double>(pending_max);

  const auto calls = static_cast<double>(stack.mobility->calls());
  l["mobility.oracle_calls"] = calls;
  l["mobility.calls_per_event"] = ratio(calls, l["sim.events"]);
  l["mobility.ns_per_call"] = replay_ns_per_call(c, stack.mobility->recorded());

  const auto& channel =
      dynamic_cast<const CountingChannel&>(stack.net->channel_model());
  l["channel.consults"] = static_cast<double>(channel.consults());
  l["channel.drops"] = static_cast<double>(channel.drops());
  l["channel.drop_share"] = ratio(static_cast<double>(channel.drops()),
                                  static_cast<double>(channel.consults()));
  return r;
}

int run_main(int argc, char** argv) {
  const precinct::bench::BenchContext ctx =
      precinct::bench::capture_bench_context();
  if (ctx.build_type != "Release") {
    std::fprintf(stderr, "perfbench_runner: refusing to measure: %s\n",
                 ctx.caveat.c_str());
    return 3;
  }
  if (argc == 2 && std::string(argv[1]) == "calibrate") {
    JsonObject out;
    out.set("calib_s", calibration_seconds());
    std::printf("%s\n", out.str().c_str());
    return 0;
  }
  if (argc < 4 || argc > 5 || (argc == 5 && std::string(argv[4]) != "--short")) {
    std::fprintf(stderr,
                 "usage: perfbench_runner timed|traced|oracle <workload> "
                 "<seed> [--short]\n"
                 "       perfbench_runner calibrate\n");
    return 2;
  }
  const std::string mode = argv[1];
  const std::uint64_t seed = std::stoull(argv[3]);
  const Workload w = make_workload(argv[2], seed, argc == 5);

  if (w.shape != Shape::kSerial) pin_to_current_cpu();
  RunResult r;
  if (mode == "timed") {
    r = w.shape == Shape::kSerial  ? timed_serial(w)
        : w.shape == Shape::kWorld ? timed_world(w)
                                   : timed_fleet(w);
  } else if (mode == "traced" && w.shape == Shape::kSerial) {
    r = traced_serial(w);
  } else if (mode == "oracle" && w.shape != Shape::kSerial) {
    r = oracle(w);
  } else {
    throw std::invalid_argument("mode '" + mode + "' does not apply to " +
                                w.name);
  }

  JsonObject context;
  context.set("build_type", ctx.build_type);
  context.set("cores", static_cast<std::uint64_t>(ctx.cores));
  context.set("cpu_governor", ctx.cpu_governor);
  JsonObject out;
  out.set("workload", w.name);
  out.set("mode", mode);
  out.set("seed", seed);
  out.set("sim_s", w.config.end_time_s());
  out.set("run_wall_s", r.run.wall_s);
  out.set("cpu_s", r.run.cpu_s);
  out.set("host_steal_share", r.run.steal_share);
  out.set("peak_rss_mib", peak_rss_mib());
  out.set_raw("setup_s", json_array(r.setup_s));
  out.set("digest", r.digest);
  out.set_raw("layers", json_object(r.layers));
  out.set_raw("context", context.str());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
}
