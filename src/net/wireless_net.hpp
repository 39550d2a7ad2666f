// Wireless substrate: unit-disk radio over a mobility model, with a
// per-node transmit queue (half-duplex MAC serialization), Feeney energy
// charging and per-kind message accounting.
//
// This is the ns-2 substitute.  Fidelity notes in DESIGN.md §6: no
// RTS/CTS or capture model; message counts, hop counts and sizes — the
// quantities the paper's metrics depend on — are exact.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "channel/channel_model.hpp"
#include "core/node_state.hpp"
#include "energy/accounting.hpp"
#include "geo/geometry.hpp"
#include "mobility/mobility_model.hpp"
#include "net/message_stats.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "net/spatial_grid.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "support/rng.hpp"

namespace precinct::net {

struct WirelessConfig {
  double range_m = 250.0;          ///< radio range (paper: 250 m)
  geo::Rect area{{0.0, 0.0}, {1200.0, 1200.0}};  ///< service area (for the
                                   ///< spatial index; set by Scenario)
  /// Period of the spatial index's position snapshot in a mobile world (a
  /// static world's snapshot is taken once).
  double spatial_index_staleness_s = 0.5;
  /// Upper bound on every node's speed.  Neighbor discovery trusts it to
  /// bound how far a node can have moved since the snapshot, and world
  /// sharding to bound how far a frame's receivers can move before it
  /// lands; an underestimate makes both wrong, so Scenario raises it to
  /// the fastest speed the configured mobility can reach.
  double max_node_speed_mps = 25.0;
  double bandwidth_bps = 11e6;     ///< 11 Mbps (paper §6.1)
  double mac_overhead_s = 0.6e-3;  ///< per-frame channel access + preamble
  double unicast_overhead_s = 0.4e-3;  ///< extra RTS/CTS-style handshake
  double propagation_s = 5e-6;     ///< flat propagation delay
  double proc_delay_s = 0.3e-3;    ///< per-hop protocol processing
  double jitter_s = 1.0e-3;        ///< random forwarding jitter (flood
                                   ///< de-synchronization), uniform [0, j)
  /// Keep each node's neighbor list until its answer can change: a
  /// time-invariant world keys it on the topology epoch, a mobile world on
  /// (topology epoch, sim time) and recomputes it from a per-node skin list
  /// built once per grid snapshot (GPSR keys its planarizations on
  /// (knowledge version, sim time)).  Results are byte-identical with or
  /// without the cache; off, every query walks the grid and sorts, the
  /// uncached reference that cross-checks determinism.
  bool neighbor_cache = true;
  /// Lossy-channel / fault-injection model (see channel/channel_model.hpp).
  /// The default "perfect" model keeps delivery byte-identical to a radio
  /// built before the channel seam existed.
  channel::ChannelConfig channel;
};

/// Upper-layer receive hook: (receiving node, packet).  Unicast frames are
/// delivered only to the addressed node; broadcast frames to every live
/// node in range of the sender.
using ReceiveHandler = std::function<void(NodeId, const Packet&)>;

/// Cross-domain transport seam for world sharding (DESIGN.md §13).  When
/// one world is cut into region-column domains, each domain's radio posts
/// through this interface instead of scheduling local events:
///
///   * post_frame    — a transmitted frame whose padded radio disc may
///                     reach nodes owned by `dst_domain`; `due` is the
///                     frame's arrival instant (airtime + propagation),
///                     which the MAC floor guarantees is at least one
///                     lookahead ahead of `now`;
///   * post_liveness — an owned node died or revived (halo delta, applied
///                     by every other domain at the next window boundary);
///   * post_region   — an owned node's region assignment changed (halo
///                     delta, same cadence);
///   * post_catalog_update — an owned node wrote a new authoritative
///                     version into its domain's catalog replica (halo
///                     delta, same cadence; replicas merge monotonically,
///                     and any cross-domain frame carrying the new
///                     version arrives no earlier than the delta, so no
///                     replica ever caches a version newer than its
///                     authoritative one).
///
/// The one implementation, core::DomainLink, is bound to this radio's
/// domain; it hands the posts to a transport (executor mailboxes or UDP)
/// and keeps the conservation ledger the post-run audit checks.
class WorldCoupler {
 public:
  virtual ~WorldCoupler() = default;
  virtual void post_frame(std::uint32_t dst_domain, double due,
                          const Packet& packet, bool is_unicast,
                          NodeId next_hop) = 0;
  virtual void post_liveness(NodeId node, bool alive, double now) = 0;
  virtual void post_region(NodeId node, geo::RegionId region,
                           double now) = 0;
  virtual void post_catalog_update(geo::Key key, std::uint64_t version,
                                   double now) = 0;
};

/// One domain's identity inside a world-sharded run: which nodes it owns
/// (owner[i] == domain), how many domains exist, and the coupler to post
/// cross-domain traffic through.  `owner` must outlive the radio.
struct WorldShardBinding {
  std::uint32_t domain = 0;
  std::uint32_t n_domains = 1;
  const std::uint32_t* owner = nullptr;  ///< node id -> owning domain
  WorldCoupler* coupler = nullptr;
};

/// Promiscuous-mode hook: called for every node that overhears a unicast
/// frame addressed to someone else (GPSR position piggybacking).
using SnoopHandler = std::function<void(NodeId, const Packet&)>;

class WirelessNet {
 public:
  WirelessNet(sim::Simulator& simulator, mobility::MobilityModel& mobility,
              const WirelessConfig& config, energy::FeeneyModel energy_model,
              std::uint64_t seed);

  WirelessNet(const WirelessNet&) = delete;
  WirelessNet& operator=(const WirelessNet&) = delete;

  /// Retires the frame pool: frames referenced by still-queued delivery
  /// events stay alive until those events are destroyed.
  ~WirelessNet();

  /// Register the upper layer.  Must be set before any traffic flows.
  void set_receive_handler(ReceiveHandler handler) {
    on_receive_ = std::move(handler);
  }

  /// Register a promiscuous-overhear hook (optional).
  void set_snoop_handler(SnoopHandler handler) {
    on_snoop_ = std::move(handler);
  }

  /// Attach a tracer for kChannel drop events (nullptr detaches).
  void set_tracer(sim::Tracer* tracer) noexcept { tracer_ = tracer; }

  /// When this node's last transmission finished (0 if it never sent).
  [[nodiscard]] double last_transmission_s(NodeId node) const {
    return busy_until_.at(node);
  }

  [[nodiscard]] std::size_t node_count() const noexcept { return n_nodes_; }

  /// The configuration this radio runs with (Scenario fills in the area
  /// and the speed bound).
  [[nodiscard]] const WirelessConfig& config() const noexcept {
    return config_;
  }

  /// Current position of a node.  Lazily cached in the SoA position
  /// columns keyed on the exact sim time, so repeated queries within one
  /// event timestamp cost two array reads instead of a virtual mobility
  /// call (values are identical either way: trajectories are per-node
  /// deterministic).  Static worlds skip even the stamp check: the
  /// columns were snapshotted once at construction and can never go
  /// stale.
  [[nodiscard]] geo::Point position(NodeId node) {
    if (static_world_) return nodes_.position(node);
    return nodes_.position_cached(node, sim_.now(), mobility_);
  }

  /// The SoA node-state columns this radio keeps current (positions,
  /// liveness) and the engine annotates (regions).  Engine-level sweeps
  /// read columns directly; protocol modules should keep using the
  /// per-node accessors.
  [[nodiscard]] core::NodeStateSoA& node_state() noexcept { return nodes_; }
  [[nodiscard]] const core::NodeStateSoA& node_state() const noexcept {
    return nodes_;
  }

  /// Live nodes within radio range of `node` (excluding itself), sorted.
  /// Served from a per-node cache that is recomputed only when the answer
  /// can differ: in a time-invariant world when the topology epoch moves,
  /// in a mobile world when the epoch or the sim time does.  A mobile
  /// world recomputes by classifying the node's skin list, every node
  /// that can come into range before the next grid snapshot, built at the
  /// node's first query after each snapshot (DESIGN.md §12).  The
  /// reference stays valid until the next query for `node` that
  /// recomputes (every query, with the neighbor cache off); copy it if the
  /// neighborhood must outlive that.
  [[nodiscard]] const std::vector<NodeId>& neighbors(NodeId node);

  /// Bumped on every spatial-index snapshot and on node kill/revive, so
  /// caches keyed on it never outlive a liveness change.
  [[nodiscard]] std::uint64_t topology_epoch() const noexcept {
    return topology_epoch_;
  }

  /// Neighbor lists built by walking the spatial grid (a cell walk and a
  /// sort): one per query with the neighbor cache off; with it on, one per
  /// node and topology epoch queried in a time-invariant world, and one
  /// skin list per node and grid snapshot queried in a mobile world.
  /// Observe-only: nothing in the simulation reads it.
  [[nodiscard]] std::uint64_t neighbor_grid_walks() const noexcept {
    return neighbor_grid_walks_;
  }

  /// True when a direct radio link exists between two live nodes now.
  [[nodiscard]] bool in_range(NodeId a, NodeId b);

  /// Copy `packet` into a pooled frame (see packet_pool.hpp).  Forwarding
  /// paths acquire once and hand the ref to broadcast/unicast; every
  /// queued closure then shares the frame instead of copying the packet.
  [[nodiscard]] PacketRef make_ref(const Packet& packet) {
    return pool_->acquire(packet);
  }

  /// Queue a broadcast frame from `packet->src`.  Every live in-range node
  /// receives it; all receivers pay broadcast-receive energy.
  void broadcast(PacketRef packet);
  void broadcast(const Packet& packet) { broadcast(make_ref(packet)); }

  /// Queue a unicast frame from `packet->src` to `next_hop`.  The target
  /// pays p2p-receive energy; other in-range nodes overhear and pay the
  /// discard cost.  If the link is down at transmit time the frame is
  /// lost (counted in frames_lost()).
  void unicast(PacketRef packet, NodeId next_hop);
  void unicast(const Packet& packet, NodeId next_hop) {
    unicast(make_ref(packet), next_hop);
  }

  // -- failure injection (paper §2.4) --------------------------------------

  /// Crash a node: it stops sending, receiving and overhearing.  In a
  /// world-sharded run, killing an *owned* node also posts a liveness
  /// halo delta so every other domain's replica flags it dead at the next
  /// window boundary.
  void kill(NodeId node);
  /// Revive a previously killed node (same halo-delta rule as kill()).
  void revive(NodeId node);
  [[nodiscard]] bool is_alive(NodeId node) const { return nodes_.alive(node); }
  [[nodiscard]] std::size_t alive_count() const noexcept;

  // -- world sharding (DESIGN.md §13) --------------------------------------

  /// Enter world-sharded mode: this radio is domain `b.domain` of one
  /// world cut into `b.n_domains` region-column domains.  From here on
  ///   * only owned receivers are delivered/charged locally; frames whose
  ///     padded radio disc can reach another domain's nodes are marshalled
  ///     through the coupler at their arrival time;
  ///   * packet ids stride by n_domains (starting at domain + 1) so ids
  ///     stay globally unique without coordination;
  ///   * kill/revive/set_node_region on owned nodes emit halo deltas.
  /// Must be called before any traffic flows.
  void bind_world_shard(const WorldShardBinding& binding);

  /// True when `node` is simulated authoritatively by this radio (always
  /// true outside world-sharded mode).
  [[nodiscard]] bool owns(NodeId node) const noexcept {
    return world_.owner == nullptr || world_.owner[node] == world_.domain;
  }

  /// Write the region column; in world mode an owned node's change is
  /// also posted as a halo delta.  EngineContext::set_region routes here
  /// so the column, PeerState::region and remote replicas stay coherent.
  void set_node_region(NodeId node, geo::RegionId region);

  /// Announce an owned node's authoritative-version bump so every other
  /// domain's catalog replica can merge it (halo delta; no-op outside
  /// world-sharded mode, where there is only one catalog).
  void announce_catalog_update(geo::Key key, std::uint64_t version) {
    if (world_.coupler != nullptr) {
      world_.coupler->post_catalog_update(key, version, sim_.now());
    }
  }

  /// Apply a halo delta from another domain (window-boundary cadence).
  /// Liveness goes through kill()/revive() — the node is not owned here,
  /// so no delta echoes back; region writes the column only (remote
  /// PeerStates are not simulated).
  void apply_remote_liveness(NodeId node, bool alive);
  void apply_remote_region(NodeId node, geo::RegionId region) {
    nodes_.set_region(node, region);
  }

  /// Deliver a frame marshalled from another domain: same receiver
  /// computation as a local delivery (this replica's positions are exact
  /// — every domain runs the same mobility oracle), but only owned
  /// receivers are charged/delivered and the sender's transmit cost is
  /// not re-paid (its own domain charged it).
  void deliver_remote_broadcast(const Packet& packet) {
    deliver_broadcast_impl(make_ref(packet), /*remote=*/true);
  }
  void deliver_remote_unicast(const Packet& packet, NodeId next_hop) {
    deliver_unicast_impl(make_ref(packet), next_hop, /*remote=*/true);
  }

  /// The derived conservative lookahead of a world-sharded run: the floor
  /// of any cross-domain frame latency.  Every transmission pays at least
  /// the MAC overhead before its last bit hits the air plus propagation,
  /// so no frame posted "now" can be due earlier than now + this.
  [[nodiscard]] static double world_lookahead(
      const WirelessConfig& config) noexcept {
    return config.mac_overhead_s + config.propagation_s;
  }

  // -- accounting -----------------------------------------------------------

  [[nodiscard]] const energy::EnergyAccountant& energy() const noexcept {
    return energy_;
  }
  [[nodiscard]] const MessageStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t frames_lost() const noexcept {
    return frames_lost_;
  }
  /// Frames erased in flight by the channel model (disjoint from
  /// frames_lost(), which counts link breaks at transmit time).
  [[nodiscard]] std::uint64_t frames_dropped_by_channel() const noexcept {
    return frames_dropped_by_channel_;
  }
  /// Per-cause channel-drop counters, indexed by channel::DropCause.
  [[nodiscard]] const std::array<std::uint64_t, channel::kDropCauseCount>&
  channel_drops_by_cause() const noexcept {
    return channel_drops_by_cause_;
  }
  [[nodiscard]] const channel::ChannelModel& channel_model() const noexcept {
    return *channel_;
  }

  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }

  /// Frame-pool diagnostics (tests assert recycling and bounded growth).
  [[nodiscard]] const PacketBufPool& frame_pool() const noexcept {
    return *pool_;
  }

  /// Fresh unique packet id.  World-sharded radios stride by the domain
  /// count (seeded domain + 1) so ids are globally unique with no
  /// cross-domain coordination; the default stride of 1 is the plain
  /// sequential counter.
  [[nodiscard]] std::uint64_t next_packet_id() noexcept {
    const std::uint64_t id = next_id_;
    next_id_ += id_stride_;
    return id;
  }

 private:
  /// Serialize through the sender's MAC: returns the time the frame hits
  /// the air, updating the sender's busy window.
  double reserve_airtime(NodeId sender, double tx_time);
  void deliver_broadcast(const PacketRef& packet) {
    deliver_broadcast_impl(packet, /*remote=*/false);
  }
  void deliver_unicast(PacketRef packet, NodeId next_hop) {
    deliver_unicast_impl(std::move(packet), next_hop, /*remote=*/false);
  }
  void deliver_broadcast_impl(const PacketRef& packet, bool remote);
  void deliver_unicast_impl(PacketRef packet, NodeId next_hop, bool remote);
  /// Send-time cross-domain marshalling: find every foreign domain whose
  /// owned nodes the frame's padded radio disc could reach by `arrival`
  /// and post one copy there (unicast always posts to the next hop's
  /// owner, which alone judges frames_lost for the target).
  void post_world_frames(const Packet& packet, double arrival, bool is_unicast,
                         NodeId next_hop);
  [[nodiscard]] double tx_duration(std::size_t bytes, bool unicast) const;

  /// Consult the channel model for one delivery.  Returns true (and does
  /// the drop accounting: discard energy, per-kind/per-cause counters,
  /// kChannel trace) when the frame is erased at `receiver`.
  bool channel_dropped(const Packet& p, NodeId receiver);

  /// Retake the spatial index's snapshot once it is older than
  /// spatial_index_staleness_s (static worlds: take it once).
  void refresh_grid();

  /// The snapshot classifier (DESIGN.md §12) for one query of `radius`
  /// around `center` now.  No node is farther than the drift bound from
  /// its grid snapshot, so a candidate whose snapshot lies beyond
  /// radius + drift (`out_r`) is out, one within radius - drift in, and
  /// only the ring between pays a position lookup and the exact test.
  struct RadiusTest {
    geo::Point center;
    double out_r;
    double out2;
    double in2;
    double r2;
  };
  [[nodiscard]] RadiusTest radius_test(geo::Point center,
                                       double radius) const;
  /// True when `i`, whose grid snapshot lies at `snap`, is within the
  /// test's radius of its center now (liveness is the caller's).
  [[nodiscard]] bool within(const RadiusTest& test, NodeId i,
                            geo::Point snap) {
    const double s2 = geo::distance_sq(test.center, snap);
    if (s2 > test.out2) return false;
    return s2 < test.in2 ||
           geo::distance_sq(test.center, position(i)) <= test.r2;
  }

  /// Call `hit(i)` for every live node `i` with `wanted(i)` that lies
  /// within `radius` of `center` now, walking the grid cells the test's
  /// outer radius touches.
  template <typename Wanted, typename Hit>
  void for_each_in_radius(geo::Point center, double radius, Wanted&& wanted,
                          Hit&& hit);

  /// Neighbor computation from the grid into `out` (cleared first).
  void compute_neighbors(NodeId node, std::vector<NodeId>& out);

  /// Every node but `node` whose snapshot lies within the skin radius of
  /// `node`'s own, sorted by id, into `skin` (cleared first).
  void build_skin(NodeId node, std::vector<NodeId>& skin);

  /// Receiver lists for batched broadcast delivery: each in-flight
  /// broadcast carries one; returned lists keep their capacity.  A
  /// `degree` above every earlier one grows each pooled list to it, so
  /// once the densest neighborhood has been seen, fan-out never touches
  /// the heap.
  [[nodiscard]] std::vector<NodeId> acquire_rx_list(std::size_t degree) {
    if (degree > rx_degree_) {
      rx_degree_ = degree;
      for (std::vector<NodeId>& v : rx_free_) v.reserve(degree);
    }
    std::vector<NodeId> v;
    if (!rx_free_.empty()) {
      v = std::move(rx_free_.back());
      rx_free_.pop_back();
    }
    v.clear();  // recycled lists keep their old contents
    v.reserve(rx_degree_);
    return v;
  }
  void release_rx_list(std::vector<NodeId>&& v) {
    rx_free_.push_back(std::move(v));
  }

  sim::Simulator& sim_;
  mobility::MobilityModel& mobility_;
  WirelessConfig config_;
  energy::EnergyAccountant energy_;
  MessageStats stats_;
  support::Rng rng_;
  /// Channel model + its dedicated RNG stream: drops never draw from
  /// rng_, so a lossless configuration leaves every other stream intact.
  std::unique_ptr<channel::ChannelModel> channel_;
  support::Rng channel_rng_;
  bool lossless_;
  sim::Tracer* tracer_ = nullptr;
  ReceiveHandler on_receive_;
  SnoopHandler on_snoop_;
  std::size_t n_nodes_;
  /// Time-invariant mobility (static placements): position columns are
  /// synced once in the constructor and read raw ever after.
  bool static_world_;
  /// SoA hot-path columns: positions (lazy, stamp-keyed), alive flags,
  /// region ids (written through EngineContext::set_region).
  core::NodeStateSoA nodes_;
  std::vector<double> busy_until_;
  std::uint64_t next_id_ = 1;
  std::uint64_t id_stride_ = 1;
  /// World-sharded identity; owner == nullptr means plain (own everything).
  WorldShardBinding world_;
  /// Per-domain dirty flags scratch for post_world_frames.
  std::vector<std::uint8_t> world_domain_flags_;
  std::uint64_t frames_lost_ = 0;
  std::uint64_t frames_dropped_by_channel_ = 0;
  std::array<std::uint64_t, channel::kDropCauseCount> channel_drops_by_cause_{};

  /// Frame arena.  Heap-allocated and retired (not deleted) in the dtor:
  /// queued delivery events own PacketRefs and are destroyed with the
  /// simulator, which outlives the radio.
  PacketBufPool* pool_;

  // Spatial index over every node, live or not, binned straight from the
  // SoA position columns at sim time grid_time_ (-1: not built yet).
  SpatialGrid grid_;
  double grid_time_ = -1.0;
  // A mobile world's snapshot by node id, for its skin lists: the position
  // columns move on after grid_time_, the grid keeps it in cell order.
  std::vector<geo::Point> snapshot_;
  std::vector<NodeId> skin_scratch_;  // build_skin's candidates, n slots

  // Per-node neighbor cache: the list, keyed on topology_epoch_ (and the
  // sim time, in a mobile world), and a mobile world's skin list, keyed on
  // the snapshot time it was built for.
  struct NeighborCache {
    std::uint64_t epoch = 0;  // 0 never matches a live epoch
    double at = -1.0;
    std::vector<NodeId> ids;
    double skin_at = -1.0;
    std::vector<NodeId> skin;
  };
  std::uint64_t topology_epoch_ = 1;
  std::uint64_t neighbor_grid_walks_ = 0;
  std::vector<NeighborCache> neighbor_cache_;
  std::vector<NodeId> deliver_scratch_;  // unicast snoop snapshot
  std::vector<std::vector<NodeId>> rx_free_;  // recycled fan-out snapshots
  std::size_t rx_degree_ = 0;  // largest degree seen; sizes rx_free_ lists
};

}  // namespace precinct::net
