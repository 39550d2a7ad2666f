#include "transport/node_daemon.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <thread>

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

std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string domain_fragment(std::uint32_t domain,
                            const core::Metrics& metrics) {
  char buf[96];
  std::string out;
  std::snprintf(buf, sizeof(buf), "--- domain %" PRIu32 " ---\n", domain);
  out += buf;
  std::snprintf(buf, sizeof(buf), "wire_bytes_sent=%" PRIu64 "\n",
                metrics.wire_bytes_sent);
  out += buf;
  std::snprintf(buf, sizeof(buf), "wire_bytes_received=%" PRIu64 "\n",
                metrics.wire_bytes_received);
  out += buf;
  out += core::fingerprint(metrics);
  return out;
}

std::string fleet_header(std::uint32_t domains,
                         const std::string& lookahead_hex,
                         const FleetTotals& totals) {
  char buf[96];
  std::string out = "transport-fleet-v1\n";
  const auto put = [&](const char* key, std::uint64_t value) {
    std::snprintf(buf, sizeof(buf), "%s%" PRIu64 "\n", key, value);
    out += buf;
  };
  std::snprintf(buf, sizeof(buf), "domains=%" PRIu32 "\n", domains);
  out += buf;
  out += "lookahead=";
  out += lookahead_hex;
  out += '\n';
  put("windows=", totals.windows);
  put("messages_merged=", totals.messages_merged);
  put("frames_posted=", totals.frames_posted);
  put("frames_processed=", totals.frames_processed);
  put("frames_beyond_horizon=", totals.frames_beyond_horizon);
  put("deltas_posted=", totals.deltas_posted);
  put("deltas_processed=", totals.deltas_processed);
  put("deltas_beyond_horizon=", totals.deltas_beyond_horizon);
  return out;
}

std::string fleet_fingerprint(const std::vector<DomainReport>& reports) {
  if (reports.empty()) {
    throw std::invalid_argument("fleet_fingerprint: no reports");
  }
  const std::uint32_t n = reports.front().n_domains;
  if (reports.size() != n) {
    throw std::invalid_argument(
        "fleet_fingerprint: need one report per domain");
  }
  FleetTotals t;
  t.windows = reports.front().counters.windows;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const DomainReport& r = reports[i];
    if (r.domain != i || r.n_domains != n) {
      throw std::invalid_argument(
          "fleet_fingerprint: reports must be in domain order and agree on "
          "the domain count");
    }
    // Lockstep invariants: every daemon ran the same windows over the
    // same derived lookahead, or the fleet was not the same computation.
    if (r.counters.windows != t.windows ||
        hex_double(r.lookahead_s) != hex_double(reports.front().lookahead_s)) {
      throw std::invalid_argument(
          "fleet_fingerprint: window/lookahead mismatch across domains");
    }
    t.messages_merged += r.counters.messages_merged;
    t.frames_posted += r.counters.frames_posted;
    t.frames_processed += r.counters.frames_processed;
    t.frames_beyond_horizon += r.counters.frames_beyond_horizon;
    t.deltas_posted += r.counters.deltas_posted;
    t.deltas_processed += r.counters.deltas_processed;
    t.deltas_beyond_horizon += r.counters.deltas_beyond_horizon;
  }
  std::string out =
      fleet_header(n, hex_double(reports.front().lookahead_s), t);
  for (const DomainReport& r : reports) {
    out += domain_fragment(r.domain, r.metrics);
  }
  return out;
}

std::string fleet_fingerprint(const core::WorldShardedMetrics& m) {
  FleetTotals t;
  t.windows = m.windows;
  t.messages_merged = m.messages_merged;
  t.frames_posted = m.frames_posted;
  t.frames_processed = m.frames_processed;
  t.frames_beyond_horizon = m.frames_beyond_horizon;
  t.deltas_posted = m.deltas_posted;
  t.deltas_processed = m.deltas_processed;
  t.deltas_beyond_horizon = m.deltas_beyond_horizon;
  std::string out = fleet_header(m.domains, hex_double(m.lookahead_s), t);
  for (std::size_t d = 0; d < m.per_domain.size(); ++d) {
    out += domain_fragment(static_cast<std::uint32_t>(d), m.per_domain[d]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// NodeDaemon
// ---------------------------------------------------------------------------

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
  net_opts.horizon_s = config.end_time_s();
  net_opts.config_hash = fleet_config_hash(config, n_domains);
  net_opts.bind = opts_.peers[opts_.domain];
  net_opts.peer = opts_.peers;
  net_opts.retry_s = config.transport_retry_s;
  net_opts.timeout_s = config.transport_timeout_s;
  net_ = std::make_unique<UdpNet>(net_opts);

  net::WorldShardBinding binding;
  binding.domain = opts_.domain;
  binding.n_domains = n_domains;
  binding.owner = owner_.data();
  binding.coupler = net_.get();
  scenario_->network().bind_world_shard(binding);

  core::ShardView view;
  view.domain = opts_.domain;
  view.n_domains = n_domains;
  view.owner = owner_.data();
  scenario_->engine().set_shard_view(view);

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
  report_.counters = net_->counters();
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
    net_->set_window_end(we);
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
    ++net_->counters().windows;
    next_due = net_->agreed_next_due();
    schedule_batch(batch_);
    sim_now_ = we;
    pace_and_status();
  }
  return true;
}

void NodeDaemon::schedule_batch(const std::vector<MergedMsg>& batch) {
  // Already sorted by (due, src domain, seq) — schedule_at in batch order
  // reproduces the ShardExecutor merge order tie-break.
  for (const MergedMsg& m : batch) {
    scenario_->simulator().schedule_at(m.due, [this, m] { apply_msg(m); });
  }
}

void NodeDaemon::apply_msg(const MergedMsg& m) {
  // Processed counters tick at execution time, like the in-sim Coupler's
  // callbacks: merged-but-beyond-horizon messages never reach here, which
  // is what makes the conservation ledger match the oracle's.
  TransportCounters& c = net_->counters();
  net::WirelessNet& radio = scenario_->network();
  switch (m.type) {
    case MsgType::kFrame:
      ++c.frames_processed;
      if (m.frame.is_unicast) {
        radio.deliver_remote_unicast(m.frame.packet, m.frame.next_hop);
      } else {
        radio.deliver_remote_broadcast(m.frame.packet);
      }
      break;
    case MsgType::kLiveness:
      ++c.deltas_processed;
      radio.apply_remote_liveness(m.liveness.node, m.liveness.alive);
      break;
    case MsgType::kRegion:
      ++c.deltas_processed;
      radio.apply_remote_region(m.region.node, m.region.region);
      break;
    case MsgType::kCatalog:
      ++c.deltas_processed;
      scenario_->catalog().observe_update(m.catalog.key, m.catalog.version,
                                          m.catalog.written_at);
      break;
    default:
      break;
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

void NodeDaemon::pace_and_status() {
  const core::PrecinctConfig& config = opts_.config;
  if (config.transport_pace == "realtime") {
    const double target_s = sim_now_ / config.transport_speedup;
    const std::uint64_t target_ns =
        wall_t0_ns_ + static_cast<std::uint64_t>(target_s * 1e9);
    const std::uint64_t now_ns = steady_ns();
    if (now_ns < target_ns) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(target_ns - now_ns));
    }
  }
  if (config.transport_status_interval_s > 0.0 &&
      !opts_.status_path.empty()) {
    const std::uint64_t now_ns = steady_ns();
    if (static_cast<double>(now_ns - last_status_ns_) >=
        config.transport_status_interval_s * 1e9) {
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
  const TransportCounters& c = net_->counters();
  j.set("windows", c.windows);
  j.set("messages_merged", c.messages_merged);
  j.set("frames_posted", c.frames_posted);
  j.set("frames_processed", c.frames_processed);
  j.set("frames_beyond_horizon", c.frames_beyond_horizon);
  j.set("deltas_posted", c.deltas_posted);
  j.set("deltas_processed", c.deltas_processed);
  j.set("deltas_beyond_horizon", c.deltas_beyond_horizon);
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
    // per-domain fingerprint fragment precinct_ctl splices verbatim into
    // the fleet fingerprint (JSON doubles would round-trip lossily).
    j.set("lookahead_hex", hex_double(lookahead_s_));
    j.set("fleet_fragment", domain_fragment(opts_.domain, m));
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
