#include "net/wireless_net.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "channel/channel_registry.hpp"
#include "transport/wire_format.hpp"

namespace precinct::net {

namespace {

/// Grid cell edge: the radio range, widened where range-sized cells would
/// outnumber the nodes (tiny ranges, huge areas), so the index stays O(n).
double grid_cell_m(const WirelessConfig& config, std::size_t n_nodes) {
  const double area_per_node =
      config.area.width() * config.area.height() /
      static_cast<double>(std::max<std::size_t>(n_nodes, 1));
  return std::max(config.range_m, std::sqrt(area_per_node));
}

/// Slack added to the drift bound of a grid snapshot: covers rounding in
/// the trajectories and in the squared distances compared against it,
/// which are many orders of magnitude smaller.
constexpr double kSnapshotSlackM = 1e-6;

}  // namespace

WirelessNet::WirelessNet(sim::Simulator& simulator,
                         mobility::MobilityModel& mobility,
                         const WirelessConfig& config,
                         energy::FeeneyModel energy_model, std::uint64_t seed)
    : sim_(simulator),
      mobility_(mobility),
      config_(config),
      energy_(energy_model, mobility.node_count()),
      rng_(seed),
      channel_(channel::ChannelRegistry::instance().make(config.channel)),
      // Dedicated stream: channel draws never touch rng_, so enabling a
      // lossy model perturbs nothing but its own coin flips.
      channel_rng_(support::hash_combine(seed, 0xC4A2)),
      lossless_(channel_->lossless()),
      n_nodes_(mobility.node_count()),
      static_world_(mobility.time_invariant()),
      nodes_(mobility.node_count()),
      busy_until_(mobility.node_count(), 0.0),
      pool_(new PacketBufPool),
      grid_(config.area, grid_cell_m(config, mobility.node_count())),
      neighbor_cache_(mobility.node_count()) {
  // One-time size validation; the hot paths below index unchecked.
  assert(nodes_.size() == n_nodes_);
  assert(busy_until_.size() == n_nodes_);
  assert(neighbor_cache_.size() == n_nodes_);
  // Time-invariant mobility: snapshot every trajectory now and serve all
  // position reads from the columns with no stamp checks — position_at
  // answers the same for every t, so the snapshot can never go stale.
  if (static_world_) nodes_.sync_positions(0.0, mobility_);
  // At most one fan-out batch per sender can be in flight: a sender's
  // frames serialize through a MAC window (>= mac_overhead_s) longer than
  // the processing delay a batch lives for.  Pre-sizing n snapshot
  // vectors to the receiver cap makes broadcast delivery allocation-free
  // from the first frame (acquire_rx_list still degrades gracefully if
  // the bound is ever exceeded).
  rx_free_.reserve(n_nodes_);
  for (std::size_t i = 0; i < n_nodes_; ++i) {
    std::vector<NodeId> v;
    v.reserve(n_nodes_ > 0 ? n_nodes_ - 1 : 0);
    rx_free_.push_back(std::move(v));
  }
}

WirelessNet::~WirelessNet() { pool_->retire(); }

void WirelessNet::refresh_grid() {
  const double now = sim_.now();
  if (grid_time_ >= 0.0 &&
      (static_world_ ||
       now - grid_time_ <= config_.spatial_index_staleness_s)) {
    return;
  }
  // Advancing the position columns to `now` is the mobility sweep; the
  // grid then bins straight off the columns.  Static worlds were synced
  // once at construction.  Dead nodes are indexed too — liveness is read
  // at query time — so kill/revive never forces a rebuild.
  if (!static_world_) nodes_.sync_positions(now, mobility_);
  grid_.rebuild(nodes_.x(), nodes_.y(), n_nodes_);
  grid_time_ = now;
  ++topology_epoch_;
}

template <typename Wanted, typename Hit>
void WirelessNet::for_each_in_radius(geo::Point center, double radius,
                                     Wanted&& wanted, Hit&& hit) {
  refresh_grid();
  // No node is farther than `drift` from its snapshot: it moves at most
  // max_node_speed_mps since the snapshot (not at all in a static world).
  // So a snapshot beyond radius + drift is certainly out of range, one
  // within radius - drift certainly in, and only the ring between needs
  // the node's position now — usually a mobility-oracle call.
  const double drift =
      (static_world_ ? 0.0
                     : config_.max_node_speed_mps * (sim_.now() - grid_time_)) +
      kSnapshotSlackM;
  const double out_r = radius + drift;
  const double in_r = std::max(0.0, radius - drift);
  const double out2 = out_r * out_r;
  const double in2 = in_r * in_r;
  const double r2 = radius * radius;
  const std::uint8_t* alive = nodes_.alive_data();
  grid_.for_each_near(center, out_r,
                      [&](std::uint32_t i, double x, double y) {
                        if (!alive[i] || !wanted(i)) return;
                        const double s2 = geo::distance_sq(center, {x, y});
                        if (s2 > out2) return;
                        if (s2 < in2 ||
                            geo::distance_sq(center, position(i)) <= r2) {
                          hit(i);
                        }
                      });
}

void WirelessNet::compute_neighbors(NodeId node, std::vector<NodeId>& out) {
  out.clear();
  for_each_in_radius(
      position(node), config_.range_m,
      [node](std::uint32_t i) { return i != node; },
      [&out](std::uint32_t i) { out.push_back(i); });
  std::sort(out.begin(), out.end());  // grid order is by cell, not by id
}

const std::vector<NodeId>& WirelessNet::neighbors(NodeId node) {
  assert(node < n_nodes_);
  NeighborCache& c = neighbor_cache_[node];
  const double now = sim_.now();
  if (!config_.neighbor_cache || c.epoch != topology_epoch_ || c.at != now) {
    compute_neighbors(node, c.ids);
    // Stamp after computing: the computation itself may rebuild the grid
    // and bump the epoch.
    c.epoch = topology_epoch_;
    c.at = now;
  }
  return c.ids;
}

bool WirelessNet::in_range(NodeId a, NodeId b) {
  assert(a < n_nodes_ && b < n_nodes_);
  if (!nodes_.alive(a) || !nodes_.alive(b) || a == b) return false;
  return geo::distance_sq(position(a), position(b)) <=
         config_.range_m * config_.range_m;
}

double WirelessNet::tx_duration(std::size_t bytes, bool unicast) const {
  const double serialization =
      static_cast<double>(bytes) * 8.0 / config_.bandwidth_bps;
  return serialization + config_.mac_overhead_s +
         (unicast ? config_.unicast_overhead_s : 0.0);
}

double WirelessNet::reserve_airtime(NodeId sender, double tx_time) {
  // Half-duplex MAC: a node's frames serialize through its own queue.  A
  // small random jitter decorrelates simultaneous flood forwarders.
  assert(sender < n_nodes_);
  double& busy = busy_until_[sender];
  const double start =
      std::max(sim_.now(), busy) + rng_.uniform(0.0, config_.jitter_s);
  busy = start + tx_time;
  return busy;  // time the last bit hits the air
}

void WirelessNet::bind_world_shard(const WorldShardBinding& binding) {
  assert(binding.owner != nullptr && binding.coupler != nullptr);
  assert(binding.domain < binding.n_domains);
  world_ = binding;
  world_domain_flags_.assign(binding.n_domains, 0);
  // Stride the id counter so every domain mints from a disjoint residue
  // class: ids stay globally unique without any cross-domain handshake.
  next_id_ = binding.domain + 1;
  id_stride_ = binding.n_domains;
}

void WirelessNet::set_node_region(NodeId node, geo::RegionId region) {
  nodes_.set_region(node, region);
  if (world_.coupler != nullptr && owns(node)) {
    world_.coupler->post_region(node, region, sim_.now());
  }
}

void WirelessNet::apply_remote_liveness(NodeId node, bool alive) {
  // Routed through kill/revive for the epoch bump; the node is foreign,
  // so the owns() guard inside them cannot echo a delta back.
  assert(!owns(node));
  if (alive) {
    revive(node);
  } else {
    kill(node);
  }
}

void WirelessNet::post_world_frames(const Packet& p, double arrival,
                                    bool is_unicast, NodeId next_hop) {
  // A node owned by domain d can hear this frame iff it sits within the
  // radio range of the sender at `arrival`.  Both endpoints move at most
  // max_speed in the meantime, so everything inside
  //   range + 2 * max_speed * (arrival - now)
  // of the sender *now* is the complete candidate set; the destination
  // replica recomputes the exact receiver list on its own (identical)
  // mobility oracle when the frame arrives.
  const double now = sim_.now();
  const geo::Point pos = position(p.src);
  const double reach =
      config_.range_m +
      2.0 * config_.max_node_speed_mps * (arrival - now);
  std::fill(world_domain_flags_.begin(), world_domain_flags_.end(),
            std::uint8_t{0});
  // Liveness is this replica's, read now: a node revived remotely counts
  // from the moment its halo delta lands here (DESIGN.md §13).  A domain
  // already flagged needs no further candidates.
  const std::uint32_t* owner = world_.owner;
  for_each_in_radius(
      pos, reach,
      [&](std::uint32_t i) {
        return owner[i] != world_.domain && world_domain_flags_[owner[i]] == 0;
      },
      [&](std::uint32_t i) { world_domain_flags_[owner[i]] = 1; });
  // The next hop's owner judges frames_lost for the target exactly, so a
  // unicast is always posted there even when the replica says the target
  // is out of reach or dead.
  if (is_unicast && owner[next_hop] != world_.domain) {
    world_domain_flags_[owner[next_hop]] = 1;
  }
  for (std::uint32_t d = 0; d < world_.n_domains; ++d) {
    if (world_domain_flags_[d] == 0) continue;
    world_.coupler->post_frame(d, arrival, p, is_unicast, next_hop);
  }
}

void WirelessNet::broadcast(PacketRef packet) {
  const Packet& p = *packet;
  assert(p.src != kNoNode);
  assert(p.src < n_nodes_);
  assert(owns(p.src));  // nodes transmit only in their owner domain
  if (!nodes_.alive(p.src)) return;
  stats_.count_send(p.kind, p.size_bytes);
  stats_.count_wire_sent(p.kind, transport::wire_size(p));
  const double done =
      reserve_airtime(p.src, tx_duration(p.size_bytes, false));
  const double arrival = done + config_.propagation_s;
  if (world_.coupler != nullptr) {
    post_world_frames(p, arrival, /*is_unicast=*/false, kNoNode);
  }
  // {this, ref}: 24 bytes, inline in the event slot.
  sim_.schedule_at(arrival, [this, packet = std::move(packet)] {
    deliver_broadcast(packet);
  });
}

bool WirelessNet::channel_dropped(const Packet& p, NodeId receiver) {
  const double now = sim_.now();
  const channel::Link link{p.src, receiver, p.src_location,
                           position(receiver), config_.range_m, now};
  const std::optional<channel::DropCause> cause =
      channel_->filter(link, channel_rng_);
  if (!cause.has_value()) return false;
  // The receiver still demodulated the frame before "losing" it, so it
  // pays the Feeney discard cost; the frame just never reaches the stack.
  energy_.charge(receiver, energy::RadioOp::kChannelDiscard, p.size_bytes);
  stats_.count_channel_drop(p.kind);
  ++frames_dropped_by_channel_;
  ++channel_drops_by_cause_[static_cast<std::size_t>(*cause)];
  PRECINCT_TRACE(tracer_, now, sim::TraceCategory::kChannel, receiver,
                 std::string(channel::to_string(*cause)) + " drop of " +
                     to_string(p.kind) + " from node " +
                     std::to_string(p.src));
  return true;
}

void WirelessNet::deliver_broadcast_impl(const PacketRef& packet,
                                         bool remote) {
  Packet& p = *packet;
  assert(p.src < n_nodes_);
  // Died while the frame was queued.  For a remote frame the sender's
  // alive flag is this replica's halo copy — at most one window stale
  // (DESIGN.md §13), and identically stale for every shard count.
  if (!nodes_.alive(p.src)) return;
  // Sole owner until the receiver closures below share the frame, so
  // stamping the transmit position here is race-free.
  p.src_location = position(p.src);
  // The transmit cost is paid exactly once, in the sender's own domain.
  if (!remote) {
    energy_.charge(p.src, energy::RadioOp::kBroadcastSend, p.size_bytes);
  }
  // Iterate the cached neighborhood by reference: the loop below only
  // charge energy/stats and schedule closures — nothing reenters the
  // neighbor cache before the last use.  Foreign-owned receivers are
  // skipped: their own domain delivers the marshalled copy of this frame,
  // so across all domains every receiver is charged exactly once.
  const std::vector<NodeId>& receivers = neighbors(p.src);
  // Position stamping precedes this, so the charged size matches what the
  // transport would deliver on the wire.
  const std::size_t wire_bytes = transport::wire_size(p);
  // A lossy channel is consulted per receiver and the batch goes only to
  // the survivors.  Receiver order (sorted, owned only — each directed
  // link's draws always happen in the receiver's owner domain) fixes the
  // draw order, so a given seed always erases the same frames.
  std::vector<NodeId> rx = acquire_rx_list();
  rx.clear();  // recycled lists keep their old contents
  for (const NodeId receiver : receivers) {
    if (!owns(receiver)) continue;
    if (!lossless_ && channel_dropped(p, receiver)) continue;
    energy_.charge(receiver, energy::RadioOp::kBroadcastRecv, p.size_bytes);
    stats_.count_delivery(p.kind);
    stats_.count_wire_received(p.kind, wire_bytes);
    rx.push_back(receiver);
  }
  if (!on_receive_ || rx.empty()) {
    release_rx_list(std::move(rx));
    return;
  }
  // Every receiver is delivered at the same instant (+proc_delay_s), and
  // the per-receiver events used to get consecutive tie-break sequence
  // numbers — nothing could interleave between them.  So one batch event
  // walking a snapshot of the receiver set executes the exact same handler
  // sequence while paying for a single queue insertion instead of |R|.
  // {this, ref, vector}: 48 bytes, exactly the event slot's inline limit.
  sim_.schedule(config_.proc_delay_s,
                [this, packet, rx = std::move(rx)]() mutable {
                  for (const NodeId receiver : rx) {
                    if (nodes_.alive(receiver)) on_receive_(receiver, *packet);
                  }
                  release_rx_list(std::move(rx));
                });
}

void WirelessNet::unicast(PacketRef packet, NodeId next_hop) {
  const Packet& p = *packet;
  assert(p.src != kNoNode && next_hop != kNoNode);
  assert(p.src < n_nodes_);
  assert(owns(p.src));  // nodes transmit only in their owner domain
  if (!nodes_.alive(p.src)) return;
  stats_.count_send(p.kind, p.size_bytes);
  stats_.count_wire_sent(p.kind, transport::wire_size(p));
  const double done =
      reserve_airtime(p.src, tx_duration(p.size_bytes, true));
  const double arrival = done + config_.propagation_s;
  if (world_.coupler != nullptr) {
    post_world_frames(p, arrival, /*is_unicast=*/true, next_hop);
  }
  sim_.schedule_at(arrival,
                   [this, packet = std::move(packet), next_hop]() mutable {
                     deliver_unicast(std::move(packet), next_hop);
                   });
}

void WirelessNet::deliver_unicast_impl(PacketRef packet, NodeId next_hop,
                                       bool remote) {
  Packet& p = *packet;
  assert(p.src < n_nodes_);
  if (!nodes_.alive(p.src)) return;  // halo-stale for remote frames (§13)
  p.src_location = position(p.src);
  if (!remote) {
    energy_.charge(p.src, energy::RadioOp::kP2pSend, p.size_bytes);
  }
  // Snapshot the neighborhood (reusing the scratch vector's capacity):
  // the snoop hook runs inline below and may itself query neighborhoods,
  // invalidating a cached reference mid-loop.
  {
    const std::vector<NodeId>& ids = neighbors(p.src);
    deliver_scratch_.assign(ids.begin(), ids.end());
  }
  // The addressed target is judged (reached / lost / erased) only in its
  // owner domain — that replica knows the target's liveness exactly;
  // everyone else handles just its own overhearers.
  const bool judge_target = owns(next_hop);
  bool reached = false;
  bool erased_by_channel = false;
  for (const NodeId n : deliver_scratch_) {
    if (n == next_hop) {
      if (!judge_target) continue;
      if (!lossless_ && channel_dropped(p, n)) {
        erased_by_channel = true;
        continue;
      }
      energy_.charge(n, energy::RadioOp::kP2pRecv, p.size_bytes);
      reached = true;
    } else {
      // Overhearers pay the promiscuous receive-and-discard cost — and,
      // if the upper layer snoops, learn the sender's position.  A lossy
      // channel erases overheard copies independently of the addressed
      // one (each receiver experiences its own fade).
      if (!owns(n)) continue;
      if (!lossless_ && channel_dropped(p, n)) continue;
      energy_.charge(n, energy::RadioOp::kP2pDiscard, p.size_bytes);
      if (on_snoop_) on_snoop_(n, p);
    }
  }
  if (!judge_target) return;
  if (!reached) {
    // Channel erasures are already counted in frames_dropped_by_channel_;
    // everything else is a link that broke between queueing and
    // transmission (mobility/failure).
    if (!erased_by_channel) ++frames_lost_;
    return;
  }
  stats_.count_delivery(p.kind);
  stats_.count_wire_received(p.kind, transport::wire_size(p));
  if (on_receive_) {
    sim_.schedule(config_.proc_delay_s,
                  [this, packet = std::move(packet), next_hop] {
                    if (nodes_.alive(next_hop)) on_receive_(next_hop, *packet);
                  });
  }
}

void WirelessNet::kill(NodeId node) {
  assert(node < n_nodes_);
  nodes_.set_alive(node, false);
  ++topology_epoch_;  // invalidate every cached neighborhood
  if (world_.coupler != nullptr && owns(node)) {
    world_.coupler->post_liveness(node, false, sim_.now());
  }
}

void WirelessNet::revive(NodeId node) {
  assert(node < n_nodes_);
  nodes_.set_alive(node, true);
  busy_until_[node] = sim_.now();
  ++topology_epoch_;
  if (world_.coupler != nullptr && owns(node)) {
    world_.coupler->post_liveness(node, true, sim_.now());
  }
}

std::size_t WirelessNet::alive_count() const noexcept {
  const std::uint8_t* alive = nodes_.alive_data();
  return static_cast<std::size_t>(
      std::count(alive, alive + n_nodes_, std::uint8_t{1}));
}

}  // namespace precinct::net
