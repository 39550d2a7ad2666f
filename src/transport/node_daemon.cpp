#include "transport/node_daemon.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <variant>

#include "core/config_io.hpp"
#include "sim/shard_exec.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace precinct::transport {

namespace {

[[nodiscard]] std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::uint64_t fleet_config_hash(const core::PrecinctConfig& config,
                                std::uint32_t n_domains) {
  // FNV-1a over the canonical config text: any knob that changes the kv
  // rendering changes the hash, so a fleet whose members disagree on the
  // scenario dies at rendezvous instead of diverging silently.
  const std::string text = core::config_to_string(config);
  std::uint64_t h = 14695981039346656037ull;
  for (const char ch : text) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  h = support::hash_combine(h, n_domains);
  return support::hash_combine(h, kWireVersion);
}

std::string fleet_fingerprint(const std::vector<DomainReport>& reports) {
  if (reports.empty() || reports.size() != reports.front().n_domains) {
    throw std::invalid_argument(
        "fleet_fingerprint: need one report per domain");
  }
  const double lookahead_s = reports.front().lookahead_s;
  core::WorldLedger ledger = reports.front().counters;
  std::string sections;
  for (std::uint32_t d = 0; d < reports.size(); ++d) {
    const DomainReport& r = reports[d];
    if (r.domain != d || r.n_domains != reports.size()) {
      throw std::invalid_argument(
          "fleet_fingerprint: reports must be in domain order and agree on "
          "the domain count");
    }
    // Lockstep invariants: every daemon ran the same windows (add_domain
    // checks) over the same derived lookahead, or the fleet was not the
    // same computation.
    if (r.lookahead_s != lookahead_s) {
      throw std::invalid_argument(
          "fleet_fingerprint: lookahead mismatch across domains");
    }
    if (d > 0) ledger.add_domain(r.counters);
    sections += core::domain_section(d, r.metrics);
  }
  return core::world_fingerprint(reports.front().n_domains, lookahead_s,
                                 ledger, sections);
}

// ---------------------------------------------------------------------------
// NodeDaemon
// ---------------------------------------------------------------------------

/// This domain's link over UDP: the daemon's window loop sets the window
/// end, and send() is a sequenced datagram to the peer.
class NodeDaemon::Link final : public core::DomainLink {
 public:
  Link(core::Scenario& replica, std::uint32_t domain,
       const std::vector<std::uint32_t>& owner, UdpNet& net)
      : DomainLink(replica, domain, owner), net_(net) {}

  void set_window_end(double window_end) noexcept {
    window_end_ = window_end;
  }

 private:
  [[nodiscard]] double window_end() const override { return window_end_; }
  void send(std::uint32_t dst, const DataMsg& msg) override {
    net_.send(dst, msg);
  }

  UdpNet& net_;
  double window_end_ = 0.0;  ///< 0 while idle before the first window
};

NodeDaemon::NodeDaemon(const Options& opts) : opts_(opts) {
  const core::PrecinctConfig& config = opts_.config;
  lookahead_s_ = core::world_validate(config);
  const auto n_domains = config.regions_x;
  if (opts_.domain >= n_domains) {
    throw std::invalid_argument("NodeDaemon: domain out of range");
  }
  if (opts_.peers.size() != n_domains) {
    throw std::invalid_argument(
        "NodeDaemon: the peer table needs one address per domain "
        "(regions_x entries)");
  }

  // The same replica the in-sim oracle builds for this domain: full world,
  // same seed (deliberately not re-salted), shards collapsed.
  scenario_ =
      std::make_unique<core::Scenario>(core::world_domain_config(config));
  owner_ = core::world_node_owners(config, scenario_->network());

  UdpNet::Options net_opts;
  net_opts.domain = opts_.domain;
  net_opts.n_domains = n_domains;
  net_opts.config_hash = fleet_config_hash(config, n_domains);
  net_opts.bind = opts_.peers[opts_.domain];
  net_opts.peer = opts_.peers;
  net_opts.retry_s = config.transport_retry_s;
  net_opts.timeout_s = config.transport_timeout_s;
  net_ = std::make_unique<UdpNet>(net_opts);

  link_ = std::make_unique<Link>(*scenario_, opts_.domain, owner_, *net_);

  report_.domain = opts_.domain;
  report_.n_domains = n_domains;
  report_.lookahead_s = lookahead_s_;
}

NodeDaemon::~NodeDaemon() = default;

NodeDaemon::Outcome NodeDaemon::run(const std::function<bool()>& stop) {
  write_status("starting");
  if (!net_->rendezvous(stop)) return finish_stopped();

  scenario_->engine().initialize();
  // Barrier 0: the executor's pre-window idle merge.  Init-time halo
  // deltas (initial liveness, placement) are posted at due <= now = 0 and
  // must merge before the first compute window, exactly as in-sim.
  batch_.clear();
  if (net_->close_barrier(0, 0.0, scenario_->simulator().next_event_time(),
                          stop, batch_) != BarrierResult::kClosed) {
    return finish_stopped();
  }
  schedule_batch(batch_);

  write_status("running");
  wall_t0_ns_ = steady_ns();
  last_status_ns_ = wall_t0_ns_;

  // Warm-up and measurement as separate phase loops: the boundary is an
  // exact window boundary (mirrors WorldShardedScenario's two run_until
  // calls; the second call's idle merge is provably empty and skipped).
  if (!run_phase(opts_.config.warmup_s, stop)) return finish_stopped();
  scenario_->engine().start_measurement();
  if (!run_phase(opts_.config.end_time_s(), stop)) return finish_stopped();

  report_.metrics = scenario_->engine().finalize();
  report_.counters = TransportCounters{link_->ledger(), net_->counters()};
  done_ = true;
  net_->send_bye(ByeReason::kDone);
  write_status("done");
  net_->drain(opts_.config.transport_linger_s, stop);
  return Outcome::kDone;
}

bool NodeDaemon::run_phase(double phase_end,
                           const std::function<bool()>& stop) {
  // The ShardExecutor cadence: the phase's first window always runs (no
  // barrier agreed on what start_measurement() scheduled), later ones
  // skip to the first grid window that reaches the fleet's next event.
  double next_due = -std::numeric_limits<double>::infinity();
  while (sim_now_ < phase_end) {
    const double we =
        sim::next_window_end(sim_now_, next_due, lookahead_s_, phase_end);
    link_->set_window_end(we);
    scenario_->run_until(we);
    // Injections go in before the marker publishes our next-event bound,
    // so the frames and events they start hold back the next window.
    apply_injections();
    ++window_;
    batch_.clear();
    if (net_->close_barrier(window_, we,
                            scenario_->simulator().next_event_time(), stop,
                            batch_) != BarrierResult::kClosed) {
      return false;
    }
    ++link_->ledger().windows;
    next_due = net_->agreed_next_due();
    schedule_batch(batch_);
    sim_now_ = we;
    write_periodic_status();
  }
  return true;
}

void NodeDaemon::schedule_batch(const std::vector<MergedMsg>& batch) {
  link_->ledger().messages_merged += batch.size();
  // Already sorted by (due, src domain, seq) — schedule_at in batch order
  // reproduces the ShardExecutor merge order tie-break.  Each closure
  // holds the concrete message, like the in-sim link's.
  for (const MergedMsg& merged : batch) {
    std::visit(
        [&](const auto& m) {
          scenario_->simulator().schedule_at(
              m.due, [link = link_.get(), m] { link->apply(m); });
        },
        merged.msg);
  }
}

void NodeDaemon::apply_injections() {
  for (const InjectMsg& m : net_->take_injections()) {
    if (m.node >= owner_.size()) continue;
    // Owner-gated like every workload source: the ctl broadcasts the
    // injection to the whole fleet; exactly one daemon acts on it.
    if (owner_[m.node] != opts_.domain) continue;
    if (!scenario_->network().is_alive(m.node)) continue;
    const geo::Key key = scenario_->catalog().key_of(
        static_cast<std::size_t>(m.key_rank % scenario_->catalog().size()));
    if (m.op == 1) {
      scenario_->engine().issue_update(m.node, key);
    } else {
      scenario_->engine().issue_request(m.node, key);
    }
  }
}

void NodeDaemon::write_periodic_status() {
  const double interval_s = opts_.config.transport_status_interval_s;
  if (interval_s > 0.0 && !opts_.status_path.empty()) {
    const std::uint64_t now_ns = steady_ns();
    if (static_cast<double>(now_ns - last_status_ns_) >= interval_s * 1e9) {
      last_status_ns_ = now_ns;
      write_status("running");
    }
  }
}

void NodeDaemon::write_status(const std::string& state) {
  if (opts_.status_path.empty()) return;
  support::JsonObject j;
  j.set("state", state);
  j.set("domain", static_cast<std::uint64_t>(opts_.domain));
  j.set("n_domains", static_cast<std::uint64_t>(report_.n_domains));
  j.set("port", static_cast<std::uint64_t>(net_->local_port()));
  j.set("window", window_);
  j.set("sim_now_s", sim_now_);
  j.set("wall_s",
        wall_t0_ns_ != 0
            ? static_cast<double>(steady_ns() - wall_t0_ns_) / 1e9
            : 0.0);
  for (const core::LedgerField& f : core::kLedgerFields) {
    j.set(f.name, link_->ledger().*f.count);
  }
  const DatagramCounters& c = net_->counters();
  j.set("datagrams_sent", c.datagrams_sent);
  j.set("datagrams_received", c.datagrams_received);
  j.set("datagram_bytes_sent", c.datagram_bytes_sent);
  j.set("datagram_bytes_received", c.datagram_bytes_received);
  j.set("retransmits", c.retransmits);
  j.set("nacks_sent", c.nacks_sent);
  j.set("duplicates_dropped", c.duplicates_dropped);
  j.set("malformed_dropped", c.malformed_dropped);
  if (done_) {
    const core::Metrics& m = report_.metrics;
    j.set("requests_issued", m.requests_issued);
    j.set("requests_completed", m.requests_completed);
    // Hits that needed another region's help — in a per-region fleet these
    // crossed a process boundary (own-region hits excluded).
    j.set("remote_hits",
          m.en_route_hits + m.home_region_hits + m.replica_hits);
    j.set("wire_bytes_sent", m.wire_bytes_sent);
    j.set("wire_bytes_received", m.wire_bytes_received);
    // Exact values travel as text: %a for the lookahead, and the whole
    // domain section precinct_ctl splices verbatim into the world
    // fingerprint (JSON doubles would round-trip lossily).
    char lookahead_hex[48];
    std::snprintf(lookahead_hex, sizeof(lookahead_hex), "%a", lookahead_s_);
    j.set("lookahead_hex", std::string(lookahead_hex));
    j.set("domain_section", core::domain_section(opts_.domain, m));
  }
  // Atomic snapshot: readers never see a torn file.
  const std::string tmp = opts_.status_path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << j.str(/*pretty=*/true) << '\n';
  }
  std::rename(tmp.c_str(), opts_.status_path.c_str());
}

NodeDaemon::Outcome NodeDaemon::finish_stopped() {
  net_->send_bye(ByeReason::kStopped);
  write_status("stopped");
  // Short drain with no stop predicate (ours already fired): peers only
  // need to see the Bye at their next barrier pump to stop too.
  net_->drain(std::min(opts_.config.transport_linger_s, 1.0), {});
  return Outcome::kStopped;
}

void NodeDaemon::abort(const std::string& reason) noexcept {
  try {
    net_->send_bye(ByeReason::kAborted);
  } catch (...) {  // NOLINT(bugprone-empty-catch) best-effort notice
  }
  try {
    if (!opts_.status_path.empty()) {
      support::JsonObject j;
      j.set("state", std::string("error"));
      j.set("domain", static_cast<std::uint64_t>(opts_.domain));
      j.set("error", reason);
      const std::string tmp = opts_.status_path + ".tmp";
      {
        std::ofstream out(tmp, std::ios::trunc);
        out << j.str(/*pretty=*/true) << '\n';
      }
      std::rename(tmp.c_str(), opts_.status_path.c_str());
    }
  } catch (...) {  // NOLINT(bugprone-empty-catch)
  }
}

}  // namespace precinct::transport
