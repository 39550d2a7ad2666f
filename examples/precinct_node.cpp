// precinct_node — one domain of a world-sharded PReCinCt run as a real
// OS process, coupled to its peers over UDP (DESIGN.md §14).
//
//   ./precinct_node --config fleet.conf --domain 2
//       --peers 127.0.0.1:47400,127.0.0.1:47401,... --status status-2.json
//
// The peer list maps domain -> address (one entry per region column; this
// process binds entry --domain).  SIGTERM/SIGINT stop gracefully: the
// daemon finishes its current window barrier, tells its peers, writes a
// final status snapshot and exits 0.  Protocol aborts (peer death,
// barrier timeout, config-hash split brain) exit 1.
//
// Fleets are normally launched by precinct_ctl, which builds the address
// plan and collects the per-domain status files.
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/config_io.hpp"
#include "transport/node_daemon.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int /*signum*/) { g_stop = 1; }

std::vector<precinct::transport::UdpAddress> parse_peers(
    const std::string& csv) {
  std::vector<precinct::transport::UdpAddress> out;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    std::size_t end = csv.find(',', begin);
    if (end == std::string::npos) end = csv.size();
    const std::string item = csv.substr(begin, end - begin);
    if (!item.empty()) {
      out.push_back(precinct::transport::parse_address(item));
    }
    begin = end + 1;
  }
  return out;
}

void print_help() {
  std::cout <<
      R"(precinct_node — one domain of a world-sharded PReCinCt run over UDP

  --config FILE   key=value scenario file (the WHOLE fleet's config; every
                  member must load an identical file — a config-hash
                  handshake enforces it)
  --domain N      which region-column domain this process hosts
  --peers LIST    comma-separated host:port per domain, in domain order
                  (this process binds its own entry)
  --status FILE   periodic JSON status snapshots (atomic tmp+rename);
                  the final snapshot carries the metrics fingerprint
  --help          this text

Pacing, retry/timeout and status cadence come from the config's
transport_* keys (see examples/scenario.conf.example).  SIGTERM drains
gracefully.  Exit 0 on a completed or cleanly stopped run, 1 on error.
)";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace precinct;
  std::string config_path;
  std::string peers_csv;
  std::string status_path;
  std::optional<std::uint32_t> domain;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto need = [&]() -> std::string {
        if (i + 1 >= argc) {
          throw std::invalid_argument(arg + " needs a value");
        }
        return argv[++i];
      };
      if (arg == "--help") {
        print_help();
        return 0;
      } else if (arg == "--config") {
        config_path = need();
      } else if (arg == "--domain") {
        domain = core::parse_integer<std::uint32_t>(need(), arg);
      } else if (arg == "--peers") {
        peers_csv = need();
      } else if (arg == "--status") {
        status_path = need();
      } else {
        throw std::invalid_argument("unknown argument: " + arg);
      }
    }
    if (config_path.empty() || !domain || peers_csv.empty()) {
      throw std::invalid_argument(
          "--config, --domain and --peers are required");
    }
  } catch (const std::exception& e) {
    std::cerr << "precinct_node: " << e.what() << " (try --help)\n";
    return 2;
  }

  try {
    transport::NodeDaemon::Options opts;
    opts.config = core::config_from_file(config_path);
    opts.domain = *domain;
    opts.peers = parse_peers(peers_csv);
    opts.status_path = status_path;

    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);

    transport::NodeDaemon daemon(opts);
    try {
      // Both outcomes (ran to the horizon / drained after a stop signal)
      // are clean exits; only protocol errors reach the catch below.
      (void)daemon.run([] { return g_stop != 0; });
      return 0;
    } catch (const std::exception& e) {
      daemon.abort(e.what());
      std::cerr << "precinct_node[" << *domain << "]: " << e.what() << '\n';
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "precinct_node: " << e.what() << '\n';
    return 1;
  }
}
