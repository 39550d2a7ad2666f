#include "core/workload_driver.hpp"

#include <algorithm>
#include <vector>

#include "core/consistency_scheme.hpp"
#include "core/custody_manager.hpp"
#include "core/retrieval_scheme.hpp"

namespace precinct::core {

geo::Key WorkloadDriver::sample_key(net::NodeId peer) {
  std::size_t rank = ctx_.zipf.sample(ctx_.peers[peer].rng);
  if (ctx_.config.hotspot_rotation_interval_s > 0.0) {
    const auto rotations = static_cast<std::size_t>(
        ctx_.sim.now() / ctx_.config.hotspot_rotation_interval_s);
    rank = (rank + rotations * ctx_.config.hotspot_shift) %
           ctx_.catalog.size();
  }
  return ctx_.catalog.key_of(rank);
}

void WorkloadDriver::schedule_next_request(net::NodeId peer) {
  // Flash crowds divide the mean interval; the default multiplier of 1
  // leaves the paper's schedule bit-identical (x / 1.0 == x).
  const double wait = ctx_.peers[peer].rng.exponential(
      ctx_.config.mean_request_interval_s /
      ctx_.config.request_rate_multiplier);
  const std::uint32_t generation = ctx_.peers[peer].generation;
  ctx_.sim.schedule(wait, [this, peer, generation] {
    if (ctx_.net.is_alive(peer) &&
        ctx_.peers[peer].generation == generation) {
      ctx_.retrieval->issue(peer, sample_key(peer), /*prefetch=*/false);
      schedule_next_request(peer);
    }
  });
}

void WorkloadDriver::schedule_next_update(net::NodeId peer) {
  const double wait =
      ctx_.peers[peer].rng.exponential(ctx_.config.mean_update_interval_s);
  const std::uint32_t generation = ctx_.peers[peer].generation;
  ctx_.sim.schedule(wait, [this, peer, generation] {
    if (ctx_.net.is_alive(peer) &&
        ctx_.peers[peer].generation == generation) {
      ctx_.consistency->initiate_update(peer, sample_key(peer));
      schedule_next_update(peer);
    }
  });
}

void WorkloadDriver::schedule_script(
    const std::vector<workload::ScriptEvent>& events) {
  const std::size_t n_nodes = ctx_.net.node_count();
  const std::size_t catalog_size = ctx_.catalog.size();
  for (const workload::ScriptEvent& ev : events) {
    if (ev.node >= n_nodes) {
      throw std::invalid_argument(
          "workload script: node " + std::to_string(ev.node) +
          " out of range (n_nodes = " + std::to_string(n_nodes) + ")");
    }
    if (!ctx_.shard.owns(ev.node)) continue;
    const geo::Key key = ctx_.catalog.key_of(ev.rank % catalog_size);
    ctx_.sim.schedule_at(ev.t_s, [this, ev, key] {
      if (!ctx_.net.is_alive(ev.node)) return;
      if (ev.op == workload::ScriptEvent::Op::kUpdate) {
        ctx_.consistency->initiate_update(ev.node, key);
      } else {
        ctx_.retrieval->issue(ev.node, key, /*prefetch=*/false);
      }
    });
  }
}

void WorkloadDriver::schedule_zipf_drift() {
  ctx_.sim.schedule(ctx_.config.zipf_drift_step_s, [this] {
    const double theta = std::clamp(
        ctx_.config.zipf_theta +
            ctx_.config.zipf_drift_per_s * ctx_.sim.now(),
        0.0, 4.0);
    ctx_.zipf.reset_theta(theta);
    schedule_zipf_drift();
  });
}

void WorkloadDriver::schedule_region_checks() {
  const bool has_fixed = ctx_.config.has_fixed_nodes();
  for (net::NodeId i = 0; i < ctx_.net.node_count(); ++i) {
    // Only the owner domain watches a node's region: it alone runs the
    // handoff protocol, and its set_region posts the halo delta.
    if (!ctx_.shard.owns(i)) continue;
    // Fixed roadside units never cross a boundary; don't poll them.
    if (has_fixed && ctx_.net.node_state().fixed(i)) continue;
    // Stagger checks so the whole fleet doesn't probe at the same instant.
    const double offset =
        ctx_.peers[i].rng.uniform(0.0, ctx_.config.region_check_interval_s);
    ctx_.sim.schedule(offset, [this, i] { ctx_.custody->check_region(i); });
  }
}

void WorkloadDriver::schedule_beacon(net::NodeId peer) {
  // Jittered periodic position broadcast (GPSR neighbor discovery).
  const double wait = ctx_.config.beacon_interval_s *
                      (0.75 + 0.5 * ctx_.peers[peer].rng.uniform());
  const std::uint32_t generation = ctx_.peers[peer].generation;
  ctx_.sim.schedule(wait, [this, peer, generation] {
    if (!ctx_.net.is_alive(peer) ||
        ctx_.peers[peer].generation != generation) {
      return;
    }
    // Piggybacking (GPSR): recent data traffic already announced our
    // position to everyone in range; skip the redundant beacon.
    const bool traffic_recent =
        ctx_.config.beacon_piggyback &&
        ctx_.sim.now() - ctx_.net.last_transmission_s(peer) <
            ctx_.config.beacon_interval_s;
    if (!traffic_recent) {
      net::Packet beacon =
          ctx_.make_packet(net::PacketKind::kBeacon, peer, 0);
      beacon.size_bytes = 32;  // id + position + checksum
      beacon.ttl = 1;          // never forwarded
      ctx_.net.broadcast(beacon);
    }
    schedule_beacon(peer);
  });
}

void WorkloadDriver::handle_beacon(net::NodeId self,
                                   const net::Packet& packet) {
  if (ctx_.beacons != nullptr) {
    ctx_.beacons->on_beacon(self, packet.origin, packet.origin_location,
                            ctx_.sim.now());
  }
}

support::Rng& WorkloadDriver::inject_rng() {
  if (!ctx_.shard.active()) return ctx_.rng;
  if (!shard_inject_rng_) {
    shard_inject_rng_ = std::make_unique<support::Rng>(support::hash_combine(
        support::hash_combine(ctx_.config.seed, 0xFA11), ctx_.shard.domain));
  }
  return *shard_inject_rng_;
}

double WorkloadDriver::owned_fraction() const {
  if (!ctx_.shard.active()) return 1.0;
  std::size_t owned = 0;
  const std::size_t n = ctx_.net.node_count();
  for (net::NodeId i = 0; i < n; ++i) {
    if (ctx_.shard.owns(i)) ++owned;
  }
  return n > 0 ? static_cast<double>(owned) / static_cast<double>(n) : 0.0;
}

void WorkloadDriver::schedule_crashes() {
  // World-sharded: each domain injects crashes for its own nodes at its
  // population share of the network-wide rate, from a per-domain stream —
  // the aggregate churn matches a plain run in expectation while staying
  // deterministic for any worker count.
  const double rate = ctx_.config.crash_rate_per_s * owned_fraction();
  if (rate <= 0.0) return;  // a domain that owns nothing injects nothing
  const double wait = inject_rng().exponential(1.0 / rate);
  ctx_.sim.schedule(wait, [this] {
    // Crash a uniformly random live owned peer.
    std::vector<net::NodeId> alive;
    for (net::NodeId i = 0; i < ctx_.net.node_count(); ++i) {
      if (ctx_.shard.owns(i) && ctx_.net.is_alive(i)) alive.push_back(i);
    }
    if (alive.size() > 2) {  // keep at least a residual network
      support::Rng& rng = inject_rng();
      const net::NodeId victim = alive[rng.uniform_int(alive.size())];
      ctx_.custody->fail_peer(victim,
                              rng.uniform() < ctx_.config.graceful_fraction);
    }
    schedule_crashes();
  });
}

void WorkloadDriver::schedule_joins() {
  const double rate = ctx_.config.join_rate_per_s * owned_fraction();
  if (rate <= 0.0) return;
  const double wait = inject_rng().exponential(1.0 / rate);
  ctx_.sim.schedule(wait, [this] {
    std::vector<net::NodeId> dead;
    for (net::NodeId i = 0; i < ctx_.net.node_count(); ++i) {
      if (ctx_.shard.owns(i) && !ctx_.net.is_alive(i)) dead.push_back(i);
    }
    if (!dead.empty()) {
      ctx_.custody->revive_peer(dead[inject_rng().uniform_int(dead.size())]);
    }
    schedule_joins();
  });
}

}  // namespace precinct::core
