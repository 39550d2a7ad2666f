// precinct_ctl — operator console for a local precinct_node fleet
// (DESIGN.md §14).
//
//   precinct_ctl up --config fleet.conf --dir fleet/      spawn + wait + merge
//   precinct_ctl up ... --detach                          spawn and return
//   precinct_ctl status --dir fleet/                      one line per daemon
//   precinct_ctl inject --dir fleet/ --request --node 3 --rank 0
//   precinct_ctl stop --dir fleet/                        SIGTERM the fleet
//   precinct_ctl collect --dir fleet/                     merge status files
//
// `up` launches one precinct_node per region column on loopback ports
// base_port + domain, writes a fleet.json manifest into --dir, and (unless
// --detach) waits for the run, audits cross-domain frame conservation and
// writes merged.json.  `--fingerprint` prints the fleet's world
// fingerprint to stdout; `precinct_sim --config FILE --world 1
// --fingerprint` prints the byte-identical string from the in-sim
// WorldShardedScenario, which is the CI equivalence gate.
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/config_io.hpp"
#include "core/world_scenario.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "transport/node_daemon.hpp"

namespace {

using namespace precinct;

[[noreturn]] void die(const std::string& what, int status = 1) {
  std::cerr << "precinct_ctl: " << what << '\n';
  std::exit(status);
}

void print_help() {
  std::cout <<
      R"(precinct_ctl — manage a local fleet of precinct_node daemons

  up      --config FILE [--dir DIR] [--base-port P] [--node-bin PATH]
          [--detach] [--fingerprint]
          Spawn one daemon per region column (loopback ports P+domain,
          manifest in DIR/fleet.json).  Without --detach: wait for the
          run, audit frame conservation, write DIR/merged.json; with
          --fingerprint, print the world fingerprint to stdout — the
          string `precinct_sim --config FILE --world 1 --fingerprint`
          prints for the in-sim run (the equivalence gate).
  status  --dir DIR     one line per daemon from its status snapshot
  inject  --dir DIR (--request | --update) --node N --rank R
          Inject one request/update for catalog rank R at node N (the
          node's owning daemon applies it at the next window).
  stop    --dir DIR     SIGTERM every daemon (graceful barrier drain)
  collect --dir DIR [--fingerprint]
          Merge finished daemons' status files into DIR/merged.json.

Defaults: --dir fleet, --base-port from the config's transport_base_port,
--node-bin precinct_node next to this binary.
)";
}

// -- tiny arg helpers --------------------------------------------------------

struct Args {
  std::vector<std::string> items;

  [[nodiscard]] bool flag(const std::string& name) {
    for (auto it = items.begin(); it != items.end(); ++it) {
      if (*it == name) {
        items.erase(it);
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] std::string value(const std::string& name,
                                  const std::string& fallback) {
    for (auto it = items.begin(); it != items.end(); ++it) {
      if (*it == name) {
        if (std::next(it) == items.end()) die(name + " needs a value");
        const std::string v = *std::next(it);
        items.erase(it, std::next(it, 2));
        return v;
      }
    }
    return fallback;
  }

  void expect_empty() const {
    if (!items.empty()) die("unknown argument: " + items.front());
  }
};

/// `value` read exactly as flag `name`'s integer; anything else is a
/// usage error naming the flag (never a wrapped or truncated value).
template <typename T>
T integer_flag(const std::string& value, const std::string& name) {
  try {
    return core::parse_integer<T>(value, name);
  } catch (const std::invalid_argument& e) {
    die(e.what(), 2);
  }
}

// -- file helpers ------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) die("cannot write " + path);
  out << content;
}

/// Default daemon binary: precinct_node next to this executable.
std::string sibling_node_bin() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "precinct_node";
  buf[n] = '\0';
  std::string path(buf);
  const std::size_t slash = path.rfind('/');
  if (slash == std::string::npos) return "precinct_node";
  return path.substr(0, slash + 1) + "precinct_node";
}

// -- manifest ----------------------------------------------------------------

struct Fleet {
  std::string dir;
  std::string config_path;
  std::uint32_t n_domains = 0;
  std::uint32_t base_port = 0;
  std::vector<long> pids;
  std::vector<std::string> status_paths;
};

void write_manifest(const Fleet& f) {
  support::JsonObject j;
  j.set("config", f.config_path);
  j.set("n_domains", static_cast<std::uint64_t>(f.n_domains));
  j.set("base_port", static_cast<std::uint64_t>(f.base_port));
  for (std::uint32_t d = 0; d < f.n_domains; ++d) {
    j.set("pid_" + std::to_string(d),
          static_cast<std::uint64_t>(f.pids[d]));
    j.set("status_" + std::to_string(d), f.status_paths[d]);
  }
  write_file(f.dir + "/fleet.json", j.str(/*pretty=*/true) + "\n");
}

Fleet read_manifest(const std::string& dir) {
  const support::FlatJson j = support::FlatJson::parse(
      read_file(dir + "/fleet.json"));
  Fleet f;
  f.dir = dir;
  f.config_path = j.get_string("config");
  f.n_domains = static_cast<std::uint32_t>(j.get_u64("n_domains"));
  f.base_port = static_cast<std::uint32_t>(j.get_u64("base_port"));
  for (std::uint32_t d = 0; d < f.n_domains; ++d) {
    f.pids.push_back(static_cast<long>(j.get_u64("pid_" + std::to_string(d))));
    f.status_paths.push_back(j.get_string("status_" + std::to_string(d)));
  }
  return f;
}

std::vector<support::FlatJson> read_statuses(const Fleet& f) {
  std::vector<support::FlatJson> out;
  out.reserve(f.n_domains);
  for (std::uint32_t d = 0; d < f.n_domains; ++d) {
    out.push_back(support::FlatJson::parse(read_file(f.status_paths[d])));
  }
  return out;
}

// -- merge + fingerprint -----------------------------------------------------

/// Merge finished status files: conservation audit, merged.json, and the
/// world fingerprint spliced from the daemons' own sections.  Exact values
/// travel as text: the sections verbatim, the lookahead as `%a` hex, which
/// strtod reads back bit-exactly.
void merge_fleet(const Fleet& f, bool print_fingerprint) {
  const std::vector<support::FlatJson> statuses = read_statuses(f);
  for (std::uint32_t d = 0; d < f.n_domains; ++d) {
    const std::string state = statuses[d].get_string("state");
    if (state != "done") {
      die("domain " + std::to_string(d) + " is '" + state +
          "', not 'done' — cannot merge (try `precinct_ctl status`)");
    }
  }

  const std::string lookahead_hex = statuses[0].get_string("lookahead_hex");
  core::WorldLedger ledger;
  std::string sections;
  std::uint64_t requests_issued = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t remote_hits = 0;
  std::uint64_t wire_sent = 0;
  std::uint64_t wire_received = 0;
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagram_bytes_sent = 0;
  std::uint64_t retransmits = 0;
  double wall_s = 0.0;
  for (std::uint32_t d = 0; d < f.n_domains; ++d) {
    const support::FlatJson& s = statuses[d];
    if (s.get_string("lookahead_hex") != lookahead_hex) {
      die("domain " + std::to_string(d) +
          " disagrees on the lookahead — not one fleet?");
    }
    core::WorldLedger domain;
    for (const core::LedgerField& field : core::kLedgerFields) {
      domain.*field.count = s.get_u64(field.name);
    }
    if (d == 0) {
      ledger = domain;
    } else {
      ledger.add_domain(domain);  // throws unless windows agree
    }
    requests_issued += s.get_u64("requests_issued");
    requests_completed += s.get_u64("requests_completed");
    remote_hits += s.get_u64("remote_hits");
    wire_sent += s.get_u64("wire_bytes_sent");
    wire_received += s.get_u64("wire_bytes_received");
    datagrams_sent += s.get_u64("datagrams_sent");
    datagram_bytes_sent += s.get_u64("datagram_bytes_sent");
    retransmits += s.get_u64("retransmits");
    wall_s = std::max(wall_s, s.get_double("wall_s"));
    sections += s.get_string("domain_section");
  }
  // The conservation audit WorldShardedScenario runs.  A leak means
  // lost-or-duplicated datagrams slipped past the barrier protocol.
  ledger.audit();
  const std::string fingerprint = core::world_fingerprint(
      f.n_domains, std::strtod(lookahead_hex.c_str(), nullptr), ledger,
      sections);

  support::JsonObject j;
  j.set("n_domains", static_cast<std::uint64_t>(f.n_domains));
  j.set("clean", true);
  for (const core::LedgerField& field : core::kLedgerFields) {
    j.set(field.name, ledger.*field.count);
  }
  j.set("requests_issued", requests_issued);
  j.set("requests_completed", requests_completed);
  j.set("remote_hits", remote_hits);
  j.set("wire_bytes_sent", wire_sent);
  j.set("wire_bytes_received", wire_received);
  j.set("datagrams_sent", datagrams_sent);
  j.set("datagram_bytes_sent", datagram_bytes_sent);
  j.set("retransmits", retransmits);
  j.set("wall_s", wall_s);
  j.set("world_fingerprint", fingerprint);
  write_file(f.dir + "/merged.json", j.str(/*pretty=*/true) + "\n");

  std::cerr << "fleet: " << f.n_domains << " domains, " << ledger.windows
            << " windows, " << requests_completed << "/" << requests_issued
            << " requests completed, " << remote_hits << " remote hits, "
            << wire_sent << " wire bytes, " << wall_s << " s wall ("
            << retransmits << " retransmits)\n"
            << "merged: " << f.dir << "/merged.json\n";
  if (print_fingerprint) std::cout << fingerprint;
}

// -- subcommands -------------------------------------------------------------

int cmd_up(Args& args) {
  const std::string config_path = args.value("--config", "");
  if (config_path.empty()) die("up: --config is required");
  const std::string dir = args.value("--dir", "fleet");
  const std::string node_bin = args.value("--node-bin", sibling_node_bin());
  const bool detach = args.flag("--detach");
  const bool want_fingerprint = args.flag("--fingerprint");
  const core::PrecinctConfig config = core::config_from_file(config_path);
  // Fail before spawning anything if the config cannot be world-sharded.
  (void)core::world_validate(config);
  const auto base_port = integer_flag<std::uint32_t>(
      args.value("--base-port", std::to_string(config.transport_base_port)),
      "--base-port");
  args.expect_empty();

  Fleet f;
  f.dir = dir;
  f.config_path = config_path;
  f.n_domains = config.regions_x;
  f.base_port = base_port;
  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    die("cannot create directory " + dir);
  }

  std::string peers;
  for (std::uint32_t d = 0; d < f.n_domains; ++d) {
    if (d > 0) peers += ',';
    peers += "127.0.0.1:" + std::to_string(base_port + d);
  }

  for (std::uint32_t d = 0; d < f.n_domains; ++d) {
    const std::string status = dir + "/status-" + std::to_string(d) + ".json";
    f.status_paths.push_back(status);
    const pid_t pid = ::fork();
    if (pid < 0) die("fork failed");
    if (pid == 0) {
      const std::vector<std::string> argv_s = {
          node_bin,  "--config", config_path, "--domain", std::to_string(d),
          "--peers", peers,      "--status",  status};
      std::vector<char*> argv_c;
      argv_c.reserve(argv_s.size() + 1);
      for (const std::string& s : argv_s) {
        argv_c.push_back(const_cast<char*>(s.c_str()));
      }
      argv_c.push_back(nullptr);
      ::execv(node_bin.c_str(), argv_c.data());
      std::cerr << "precinct_ctl: cannot exec " << node_bin << '\n';
      ::_exit(127);
    }
    f.pids.push_back(pid);
  }
  write_manifest(f);
  std::cerr << "spawned " << f.n_domains << " daemons on ports " << base_port
            << ".." << (base_port + f.n_domains - 1) << " (manifest "
            << dir << "/fleet.json)\n";
  if (detach) return 0;

  bool ok = true;
  for (std::uint32_t d = 0; d < f.n_domains; ++d) {
    int wstatus = 0;
    if (::waitpid(static_cast<pid_t>(f.pids[d]), &wstatus, 0) < 0) {
      std::cerr << "waitpid(" << f.pids[d] << ") failed\n";
      ok = false;
      continue;
    }
    const bool clean = WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
    if (!clean) {
      std::cerr << "domain " << d << " exited with "
                << (WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1) << '\n';
      ok = false;
    }
  }
  if (!ok) die("fleet did not finish cleanly");
  merge_fleet(f, want_fingerprint);
  return 0;
}

int cmd_status(Args& args) {
  const Fleet f = read_manifest(args.value("--dir", "fleet"));
  args.expect_empty();
  for (std::uint32_t d = 0; d < f.n_domains; ++d) {
    std::ifstream probe(f.status_paths[d]);
    if (!probe) {
      std::cout << "domain " << d << ": (no status file yet)\n";
      continue;
    }
    std::ostringstream ss;
    ss << probe.rdbuf();
    const support::FlatJson s = support::FlatJson::parse(ss.str());
    std::cout << "domain " << d << ": " << s.get_string("state")
              << "  window=" << s.get_u64("window")
              << "  sim_now=" << s.get_double("sim_now_s") << "s"
              << "  frames=" << s.get_u64("frames_posted") << "/"
              << s.get_u64("frames_processed")
              << "  retransmits=" << s.get_u64("retransmits") << '\n';
  }
  return 0;
}

int cmd_stop(Args& args) {
  const Fleet f = read_manifest(args.value("--dir", "fleet"));
  args.expect_empty();
  for (std::uint32_t d = 0; d < f.n_domains; ++d) {
    if (::kill(static_cast<pid_t>(f.pids[d]), SIGTERM) == 0) {
      std::cerr << "sent SIGTERM to domain " << d << " (pid " << f.pids[d]
                << ")\n";
    }
  }
  return 0;
}

int cmd_inject(Args& args) {
  const std::string dir = args.value("--dir", "fleet");
  const bool is_update = args.flag("--update");
  const bool is_request = args.flag("--request");
  if (is_update == is_request) die("inject: pass exactly one of --request / --update");
  const std::string node_s = args.value("--node", "");
  const std::string rank_s = args.value("--rank", "0");
  if (node_s.empty()) die("inject: --node is required");
  args.expect_empty();

  // Flags first: a bad value fails as a usage error without a fleet.
  transport::InjectMsg msg;
  msg.op = is_update ? 1 : 0;
  msg.node = integer_flag<net::NodeId>(node_s, "--node");
  msg.key_rank = integer_flag<std::uint64_t>(rank_s, "--rank");
  const Fleet f = read_manifest(dir);
  // Unique per invocation; daemons dedupe the retries below on it.
  msg.inject_id = support::hash_combine(
      static_cast<std::uint64_t>(std::time(nullptr)),
      static_cast<std::uint64_t>(::getpid()));

  transport::WireWriter w;
  transport::Envelope env;
  env.type = transport::MsgType::kInject;
  env.src_domain = transport::kCtlDomain;
  env.seq = 0;
  transport::encode_envelope(env, w);
  transport::encode_inject(msg, w);

  transport::UdpSocket sock({transport::kLoopbackHost, 0});
  // Fire-and-forget over loopback; 3 sends per daemon make loss
  // vanishingly unlikely and inject_id dedup makes them idempotent.
  for (int burst = 0; burst < 3; ++burst) {
    for (std::uint32_t d = 0; d < f.n_domains; ++d) {
      const transport::UdpAddress dst{transport::kLoopbackHost,
                                      static_cast<std::uint16_t>(
                                          f.base_port + d)};
      (void)sock.send_to(dst, w.data().data(), w.size());
    }
  }
  std::cerr << "injected " << (is_update ? "update" : "request") << " node="
            << node_s << " rank=" << rank_s << " (id " << msg.inject_id
            << ") to " << f.n_domains << " daemons\n";
  return 0;
}

int cmd_collect(Args& args) {
  const Fleet f = read_manifest(args.value("--dir", "fleet"));
  const bool want_fingerprint = args.flag("--fingerprint");
  args.expect_empty();
  merge_fleet(f, want_fingerprint);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_help();
    return 2;
  }
  const std::string cmd = argv[1];
  Args args;
  args.items.assign(argv + 2, argv + argc);
  try {
    if (cmd == "--help" || cmd == "help") {
      print_help();
      return 0;
    }
    if (cmd == "up") return cmd_up(args);
    if (cmd == "status") return cmd_status(args);
    if (cmd == "stop") return cmd_stop(args);
    if (cmd == "inject") return cmd_inject(args);
    if (cmd == "collect") return cmd_collect(args);
    std::cerr << "precinct_ctl: unknown command '" << cmd
              << "' (try --help)\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "precinct_ctl: " << e.what() << '\n';
    return 1;
  }
}
