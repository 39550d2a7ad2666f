// NodeDaemon: one OS process hosting one domain of a world-sharded
// PReCinCt run, coupled to its peers over UDP (DESIGN.md §14).
//
// The daemon builds the same full same-seed Scenario replica the in-sim
// WorldShardedScenario would build for its domain (world_domain_config /
// world_node_owners are shared), couples it through the same
// core::DomainLink, drives it through the identical lookahead-window
// cadence, and lets UdpNet stand in for the ShardExecutor's mailboxes.
// Because everything else — replica construction, ownership, the
// coupling rules, window boundaries, merge order — is shared code, a
// fleet's merged results are bit-identical to the DES oracle's, and both
// render the one core::world_fingerprint.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/world_scenario.hpp"
#include "transport/udp_net.hpp"

namespace precinct::transport {

/// Scenario identity for the Hello handshake: canonical config text +
/// domain count + wire version.  Two daemons with different hashes refuse
/// to form a fleet.
[[nodiscard]] std::uint64_t fleet_config_hash(
    const core::PrecinctConfig& config, std::uint32_t n_domains);

/// One daemon's counters: its domain link's ledger and its socket's
/// datagram diagnostics.
struct TransportCounters : core::WorldLedger, DatagramCounters {};

/// One domain's contribution to the fleet fingerprint.
struct DomainReport {
  std::uint32_t domain = 0;
  std::uint32_t n_domains = 1;
  double lookahead_s = 0.0;
  core::Metrics metrics;
  TransportCounters counters;
};

/// The world fingerprint of a fleet from its per-domain reports (the
/// in-process harness path).  Reports must be in domain order and agree
/// on windows/lookahead; throws std::invalid_argument otherwise.
[[nodiscard]] std::string fleet_fingerprint(
    const std::vector<DomainReport>& reports);

/// The oracle side: the in-sim run's world fingerprint, the string a
/// fleet of the same config must reproduce.
[[nodiscard]] inline std::string fleet_fingerprint(
    const core::WorldShardedMetrics& m) {
  return core::world_fingerprint(m);
}

class NodeDaemon {
 public:
  struct Options {
    core::PrecinctConfig config;      ///< the WORLD config (shared by fleet)
    std::uint32_t domain = 0;
    std::vector<UdpAddress> peers;    ///< domain -> address; size == regions_x
    std::string status_path;          ///< JSON snapshots; "" disables
  };

  enum class Outcome {
    kDone = 0,     ///< ran to the horizon, report() is valid
    kStopped = 1,  ///< graceful stop (SIGTERM or a peer stopping)
  };

  explicit NodeDaemon(const Options& opts);
  ~NodeDaemon();

  NodeDaemon(const NodeDaemon&) = delete;
  NodeDaemon& operator=(const NodeDaemon&) = delete;

  /// Rendezvous, run every window to the horizon, finalize, drain.
  /// `stop` (may be empty) is polled between windows and inside barrier
  /// waits — the SIGTERM hook.  Throws std::runtime_error on protocol
  /// aborts (peer death, barrier timeout, split-brain hello).
  Outcome run(const std::function<bool()>& stop);

  /// Best-effort abort notice to peers + a final error status snapshot;
  /// call from the catch block around run().
  void abort(const std::string& reason) noexcept;

  /// Valid after run() returned kDone.
  [[nodiscard]] const DomainReport& report() const noexcept {
    return report_;
  }
  [[nodiscard]] std::uint16_t port() const { return net_->local_port(); }
  [[nodiscard]] double lookahead_s() const noexcept { return lookahead_s_; }

 private:
  class Link;  // DomainLink over UdpNet

  [[nodiscard]] bool run_phase(double phase_end,
                               const std::function<bool()>& stop);
  void schedule_batch(const std::vector<MergedMsg>& batch);
  void apply_injections();
  /// Rewrite the status file once transport_status_interval has passed.
  void write_periodic_status();
  void write_status(const std::string& state);
  Outcome finish_stopped();

  Options opts_;
  double lookahead_s_ = 0.0;
  std::vector<std::uint32_t> owner_;
  std::unique_ptr<core::Scenario> scenario_;
  std::unique_ptr<UdpNet> net_;
  std::unique_ptr<Link> link_;
  DomainReport report_;
  std::vector<MergedMsg> batch_;
  std::uint64_t window_ = 0;   ///< barrier counter; 0 = init idle merge
  double sim_now_ = 0.0;
  bool done_ = false;
  // Wall-clock anchors (opaque steady_clock nanos to keep <chrono> out of
  // the header).
  std::uint64_t wall_t0_ns_ = 0;
  std::uint64_t last_status_ns_ = 0;
};

}  // namespace precinct::transport
