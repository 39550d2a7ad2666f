// precinct_sim — command-line front end over the full configuration
// surface.  Runs one scenario (or several seeded replications) and prints
// a metrics table, or a single CSV row for scripting sweeps.
//
//   ./precinct_sim --nodes 80 --policy gd-ld --cache 0.02
//   ./precinct_sim --consistency push-adaptive-pull --updates
//                  --update-interval 60 --seeds 4 --csv   (one shell line)
//
// Run with --help for the full flag list.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/config_io.hpp"
#include "core/pack.hpp"
#include "core/scenario.hpp"
#include "core/world_scenario.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace {

using precinct::core::PrecinctConfig;

void print_help() {
  std::cout <<
      R"(precinct_sim — PReCinCt MP2P cooperative caching simulator

topology
  --nodes N            peers in the network               (default 80)
  --area METERS        square side length                 (default 1200)
  --regions K          KxK region grid                    (default 3)
  --range METERS       radio range                        (default 250)

mobility
  --mobility MODEL     random-waypoint | random-direction |
                       gauss-markov | manhattan | commuter |
                       static                             (default random-waypoint)
  --speed-max M_S      maximum node speed                 (default 6)
  --pause S            pause between movement legs        (default 5)
                       (manhattan street_spacing/turn_prob and commuter
                       commuter_period/commuter_hubs are config-file keys)

heterogeneous fleets (config-file only)
  class.<name>.count   nodes in the class (counts sum to the fleet size)
  class.<name>.cache_kb  per-peer cache KiB (0 = cache_fraction sizing)
  class.<name>.speed   class speed cap (0 = scenario v_min/v_max)
  class.<name>.fixed   true = static roadside unit (custody anchor)

workload
  --items N            data items in the catalog          (default 1000)
  --request-interval S mean seconds between requests      (default 30)
  --zipf THETA         popularity skew                    (default 0.8)
                       (flash-crowd keys rate_multiplier, zipf_drift,
                       zipf_drift_step, hotspot_interval, hotspot_shift
                       are config-file keys)

caching
  --policy NAME        gd-ld | gd-size | lru | lfu        (default gd-ld)
  --cache FRACTION     dynamic cache as fraction of DB    (default 0.02)

consistency
  --consistency MODE   none | plain-push | pull-every-time |
                       push-adaptive-pull                 (default none)
  --updates            enable the update workload
  --update-interval S  mean seconds between updates       (default 30)
  --ttr-alpha A        TTR EWMA weight (Eq. 2)            (default 0.5)

retrieval & fault tolerance
  --retrieval NAME     precinct | flooding | expanding-ring (default precinct)
  --replicas K         replica regions per key            (default 1)
  --retries N          remote-lookup retransmissions (exponential
                       backoff) before replica fallback   (default 0)
  --crash-rate R       node crashes per second            (default 0)
  --dynamic-regions    enable runtime region rebalancing

channel (fault injection)
  --channel NAME       perfect | bernoulli | distance |
                       gilbert-elliott | scripted         (default perfect)
  --loss P             bernoulli per-frame loss probability (default 0)
                       (the remaining channel knobs — edge_start, edge_loss,
                       ge_enter_burst, ge_burst_frames, ge_loss_good,
                       ge_loss_bad, blackout — are config-file keys; see
                       examples/scenario.conf.example)

correctness harness
  --check CATS         runtime invariant auditing: all, or a comma list of
                       net,cache,custody,pending,consistency,energy
                       (observe-only; aborts on the first violation)
  --check-stride N     audit every N executed events    (default 64)

scenario packs
  --pack NAME          load examples/packs/NAME.conf as the scenario
                       (flags still override); an unknown NAME lists the
                       installed packs
  --packs              list installed packs and exit
  --fingerprint        print the run's metrics fingerprint (world
                       fingerprint in world-sharded mode) instead of the
                       table
  --golden-check       run the pack at full and reduced scale and diff
                       both fingerprints against NAME.golden (exit 1 on
                       drift); one serial run each, so --world, --shards
                       and --seeds > 1 are refused
  --write-golden       regenerate NAME.golden from this build (do this
                       deliberately, with a PR explaining why)
  --world K            force world-sharded execution with at most K
                       workers, even K = 1 (the world gate diffs each
                       pack's --world 1/2/4/8 fingerprints at full scale)

run control
  --config FILE        key=value scenario file, run exactly as written
                       except for the fields flags override (each flag
                       is its key: --speed-max 4 is speed_max = 4; see
                       examples/scenario.conf.example)
  --shards K           at most K workers, never more than the CPUs this
                       process may run on; K > 1 world-shards the run
                       (one world cut into region-column domains with
                       real radio traffic across the cut; results are
                       byte-identical for any K)          (default 1)
  --warmup S           warm-up before measuring           (default 150)
  --measure S          measurement window                 (default 900)
  --seed N             base RNG seed                      (default 1)
  --seeds N            replications (merged)              (default 1)
  --csv                one CSV row (with header) instead of the table
  --json               one JSON object instead of the table
  --trace N|CATS       after the run, print the last N trace events, or —
                       given a comma-separated category list (radio,
                       protocol, cache, consistency, custody, region,
                       channel) — every retained event in those categories
  --help               this text

config-file-only keys (no flag; see examples/scenario.conf.example)
  workload_script      deterministic `<t> request|update <node> <rank>`
                       events layered on the Poisson generators — the same
                       file drives in-sim runs and UDP fleets identically
  transport_*          real-transport fleet knobs (base_port,
                       status_interval, retry, timeout, linger)
                       read by precinct_node / precinct_ctl; the sim
                       ignores them, so one file can describe both runs
)";
}

class ArgParser {
 public:
  ArgParser(int argc, char** argv) : args_(argv + 1, argv + argc) {}

  [[nodiscard]] bool flag(const std::string& name) {
    for (auto it = args_.begin(); it != args_.end(); ++it) {
      if (*it == name) {
        args_.erase(it);
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] std::string value(const std::string& name,
                                  const std::string& fallback) {
    for (auto it = args_.begin(); it != args_.end(); ++it) {
      if (*it == name) {
        if (std::next(it) == args_.end()) {
          throw std::invalid_argument(name + " needs a value");
        }
        const std::string v = *std::next(it);
        args_.erase(it, std::next(it, 2));
        return v;
      }
    }
    return fallback;
  }

  /// Arguments not consumed yet.
  [[nodiscard]] std::vector<std::string>& rest() { return args_; }

 private:
  std::vector<std::string> args_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Both golden sections for a pack scenario: the configured scale and
/// the reduced_for_test() scale the unit suite runs.
precinct::core::PackGolden compute_golden(const PrecinctConfig& c) {
  precinct::core::PackGolden golden;
  golden.full = precinct::core::fingerprint(precinct::core::run_scenario(c));
  golden.reduced = precinct::core::fingerprint(
      precinct::core::run_scenario(precinct::core::reduced_for_test(c)));
  return golden;
}

/// Line-by-line mismatch report for a drifted golden section.
void report_drift(const std::string& section, const std::string& expected,
                  const std::string& actual) {
  std::cerr << "pack golden drift in [" << section << "]:\n";
  std::istringstream want(expected);
  std::istringstream got(actual);
  std::string w;
  std::string g;
  while (true) {
    const bool have_w = static_cast<bool>(std::getline(want, w));
    const bool have_g = static_cast<bool>(std::getline(got, g));
    if (!have_w && !have_g) break;
    if (!have_w) w.clear();
    if (!have_g) g.clear();
    if (w != g) {
      std::cerr << "  expected: " << w << "\n  actual:   " << g << "\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace precinct;
  try {
    ArgParser args(argc, argv);
    if (args.flag("--help")) {
      print_help();
      return 0;
    }
    if (args.flag("--packs")) {
      for (const std::string& name : core::list_packs()) {
        std::cout << name << '\n';
      }
      return 0;
    }

    PrecinctConfig c;
    std::string pack_name = args.value("--pack", "");
    core::ScenarioPack pack;
    if (!pack_name.empty()) {
      pack = core::load_pack(pack_name);
      c = pack.config;
    } else if (const std::string path = args.value("--config", "");
               !path.empty()) {
      c = core::config_from_file(path);
    }
    // Flags override single keys; every other field runs exactly as the
    // pack or config file gave it.
    c = core::config_from_flags(args.rest(), c);
    const auto seeds =
        core::parse_integer<std::size_t>(args.value("--seeds", "1"), "--seeds");
    const bool csv = args.flag("--csv");
    const bool json = args.flag("--json");
    const bool print_fingerprint = args.flag("--fingerprint");
    const bool golden_check = args.flag("--golden-check");
    const bool write_golden = args.flag("--write-golden");
    const auto world_k = core::parse_integer<std::uint32_t>(
        args.value("--world", "0"), "--world");
    if (world_k > 0) c.shards = world_k;
    // --trace takes either a count ("--trace 50": last 50 events, all
    // categories) or a category list ("--trace channel,protocol": every
    // retained event in just those categories).
    const std::string trace_arg = args.value("--trace", "");
    std::size_t trace_n = 0;
    std::vector<sim::TraceCategory> trace_cats;
    if (!trace_arg.empty()) {
      if (trace_arg.find_first_not_of("0123456789") == std::string::npos) {
        trace_n = core::parse_integer<std::size_t>(trace_arg, "--trace");
      } else {
        std::size_t begin = 0;
        while (begin <= trace_arg.size()) {
          std::size_t end = trace_arg.find(',', begin);
          if (end == std::string::npos) end = trace_arg.size();
          const std::string name = trace_arg.substr(begin, end - begin);
          const auto category = sim::category_from_string(name);
          if (!category.has_value()) {
            throw std::invalid_argument("unknown trace category '" + name +
                                        "'");
          }
          trace_cats.push_back(*category);
          begin = end + 1;
        }
      }
    }

    if (!args.rest().empty()) {
      std::cerr << "unknown argument: " << args.rest().front()
                << " (try --help)\n";
      return 2;
    }

    // Golden maintenance runs both scales as one plain serial run: the
    // golden file pins the plain fingerprint, and K-invariance is gated
    // separately by diffing --world K fingerprints.  A flag that asks for
    // another kind of run is refused rather than dropped.
    if (golden_check || write_golden) {
      if (pack_name.empty()) {
        throw std::invalid_argument(
            "--golden-check/--write-golden need --pack NAME");
      }
      const char* refused = world_k > 0    ? "--world"
                            : c.shards > 1 ? "--shards"
                            : seeds > 1    ? "--seeds"
                                           : nullptr;
      if (refused != nullptr) {
        throw std::invalid_argument(
            std::string("'") + refused +
            "' cannot be combined with --golden-check/--write-golden, which "
            "pin one serial run (gate K-invariance by diffing --world K "
            "--fingerprint outputs)");
      }
      const core::PackGolden actual = compute_golden(c);
      if (write_golden) {
        const std::string text = core::render_golden(pack_name, actual);
        std::ofstream out(pack.golden_path, std::ios::binary);
        if (!out.write(text.data(),
                       static_cast<std::streamsize>(text.size()))) {
          throw std::runtime_error("cannot write '" + pack.golden_path + "'");
        }
        std::cout << "wrote " << pack.golden_path << '\n';
        return 0;
      }
      const core::PackGolden expected =
          core::parse_golden(read_file(pack.golden_path));
      bool ok = true;
      if (expected.full != actual.full) {
        report_drift("full", expected.full, actual.full);
        ok = false;
      }
      if (expected.reduced != actual.reduced) {
        report_drift("reduced", expected.reduced, actual.reduced);
        ok = false;
      }
      if (!ok) return 1;
      std::cout << "pack '" << pack_name << "' golden ok\n";
      return 0;
    }

    const bool world_sharded = world_k > 0 || c.shards > 1;
    if (print_fingerprint) {
      // Fingerprints are single-run by definition (the determinism gates
      // diff them byte-for-byte).
      if (seeds > 1) {
        throw std::invalid_argument("--fingerprint needs --seeds 1");
      }
      if (world_sharded) {
        std::cout << core::world_fingerprint(core::run_world_scenario(c));
      } else {
        std::cout << core::fingerprint(core::run_scenario(c));
      }
      return 0;
    }
    core::Metrics m;
    if (world_sharded) {
      // World sharding cuts ONE world into region-column domains; tracing
      // is a plain-scenario feature (a single event loop to observe).
      if (trace_n > 0 || !trace_cats.empty()) {
        throw std::invalid_argument(
            "--trace needs a single-threaded run; drop --shards");
      }
      std::vector<core::Metrics> runs;
      const std::uint64_t base_seed = c.seed;
      for (std::size_t i = 0; i < std::max<std::size_t>(1, seeds); ++i) {
        PrecinctConfig replication = c;
        replication.seed = base_seed + i;
        runs.push_back(core::run_world_scenario(replication).aggregate);
      }
      m = core::merge_metrics(runs);
    } else if (trace_n > 0 || !trace_cats.empty()) {
      // Tracing implies a single (seeded) run.
      core::Scenario scenario(c);
      auto& tracer =
          scenario.enable_tracing(trace_n > 0 ? trace_n : std::size_t{4096});
      if (!trace_cats.empty()) {
        tracer.disable_all();
        for (const sim::TraceCategory category : trace_cats) {
          tracer.enable(category);
        }
      }
      m = scenario.run();
      if (trace_n > 0) {
        std::cerr << "--- last " << trace_n << " trace events ---\n";
        for (const auto& e : tracer.last(trace_n)) {
          std::cerr << '[' << e.time_s << "s] " << sim::to_string(e.category)
                    << " node " << e.node << ": " << e.message << "\n";
        }
      } else {
        std::cerr << "--- trace (" << trace_arg << ") ---\n";
        tracer.dump(std::cerr);
      }
    } else {
      m = core::merge_metrics(
          core::run_seeds(c, std::max<std::size_t>(1, seeds)));
    }

    if (json) {
      support::JsonObject out;
      out.set("nodes", static_cast<std::uint64_t>(c.n_nodes))
          .set("policy", c.cache_policy)
          .set("consistency", std::string(to_string(c.consistency)))
          .set("retrieval", std::string(to_string(c.retrieval)))
          .set("channel", c.wireless.channel.model)
          .set("cache_fraction", c.cache_fraction)
          .set("requests_issued", m.requests_issued)
          .set("requests_completed", m.requests_completed)
          .set("requests_failed", m.requests_failed)
          .set("success_ratio", m.success_ratio())
          .set("avg_latency_s", m.avg_latency_s())
          .set("p95_latency_s",
               m.latency_q.quantile(0.95))
          .set("byte_hit_ratio", m.byte_hit_ratio())
          .set("false_hit_ratio", m.false_hit_ratio())
          .set("energy_per_request_mj", m.energy_per_request_mj())
          .set("energy_broadcast_mj", m.energy_broadcast_mj)
          .set("energy_p2p_mj", m.energy_p2p_mj)
          .set("energy_channel_discard_mj", m.energy_channel_discard_mj)
          .set("consistency_messages", m.consistency_messages)
          .set("messages_sent", m.messages_sent)
          .set("frames_lost", m.frames_lost)
          .set("frames_dropped_by_channel", m.frames_dropped_by_channel)
          .set("retransmissions", m.retransmissions)
          .set("duplicate_responses_suppressed",
               m.duplicate_responses_suppressed)
          .set("custody_handoffs", m.custody_handoffs);
      std::cout << out.str(/*pretty=*/true) << '\n';
      return 0;
    }
    if (csv) {
      std::cout << "nodes,policy,consistency,retrieval,cache_fraction,"
                   "requests,completed,failed,success_ratio,avg_latency_s,"
                   "byte_hit_ratio,false_hit_ratio,energy_per_request_mj,"
                   "consistency_msgs,messages\n";
      std::cout << c.n_nodes << ',' << c.cache_policy << ','
                << to_string(c.consistency) << ',' << to_string(c.retrieval)
                << ',' << c.cache_fraction << ',' << m.requests_issued << ','
                << m.requests_completed << ',' << m.requests_failed << ','
                << m.success_ratio() << ',' << m.avg_latency_s() << ','
                << m.byte_hit_ratio() << ',' << m.false_hit_ratio() << ','
                << m.energy_per_request_mj() << ',' << m.consistency_messages
                << ',' << m.messages_sent << '\n';
      return 0;
    }

    support::Table table({"metric", "value"});
    table.add_row({"requests issued", std::to_string(m.requests_issued)});
    table.add_row({"requests completed", std::to_string(m.requests_completed)});
    table.add_row({"success ratio", support::Table::num(m.success_ratio(), 4)});
    table.add_row({"avg latency (s)", support::Table::num(m.avg_latency_s(), 4)});
    table.add_row({"byte hit ratio", support::Table::num(m.byte_hit_ratio(), 4)});
    table.add_row({"own / regional / en-route hits",
                   std::to_string(m.own_cache_hits) + " / " +
                       std::to_string(m.regional_hits) + " / " +
                       std::to_string(m.en_route_hits)});
    table.add_row({"home / replica hits",
                   std::to_string(m.home_region_hits) + " / " +
                       std::to_string(m.replica_hits)});
    table.add_row({"false hit ratio",
                   support::Table::num(m.false_hit_ratio(), 5)});
    table.add_row({"polls sent", std::to_string(m.polls_sent)});
    table.add_row({"consistency messages",
                   std::to_string(m.consistency_messages)});
    table.add_row({"energy/request (mJ)",
                   support::Table::num(m.energy_per_request_mj(), 2)});
    table.add_row({"messages sent", std::to_string(m.messages_sent)});
    if (m.frames_dropped_by_channel > 0 || m.retransmissions > 0) {
      table.add_row({"channel drops (" + c.wireless.channel.model + ")",
                     std::to_string(m.frames_dropped_by_channel)});
      table.add_row({"retransmissions", std::to_string(m.retransmissions)});
      table.add_row({"duplicate responses suppressed",
                     std::to_string(m.duplicate_responses_suppressed)});
    }
    table.add_row({"custody handoffs", std::to_string(m.custody_handoffs)});
    table.print(std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << " (try --help)\n";
    return 2;
  }
}
