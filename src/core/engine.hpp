// PrecinctEngine — thin facade over the layered protocol modules.
//
// The engine owns the simulation substrate (radio hookup, regions,
// catalog, per-peer state, metrics) and wires the pluggable modules
// together through an EngineContext: the RetrievalScheme (data search),
// the ConsistencyScheme (updates/validation), the CustodyManager
// (placement, handoff, churn, region management) and the WorkloadDriver
// (request/update/beacon generators, failure injection).  Received
// packets route to the owning module through a typed per-PacketKind
// dispatch table; the config's RetrievalKind and consistency::Mode pick
// which scheme implementations run.  See DESIGN.md §8.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/consistency_scheme.hpp"
#include "core/custody_manager.hpp"
#include "core/engine_context.hpp"
#include "core/metrics.hpp"
#include "core/retrieval_scheme.hpp"
#include "core/workload_driver.hpp"
#include "net/packet_dispatch.hpp"

namespace precinct::core {

class PrecinctEngine {
 public:
  PrecinctEngine(const PrecinctConfig& config, sim::Simulator& simulator,
                 net::WirelessNet& network, geo::RegionTable region_table,
                 workload::DataCatalog& catalog);

  /// Detaches the invariant checker's post-event hook (the simulator may
  /// outlive the engine).
  ~PrecinctEngine();

  PrecinctEngine(const PrecinctEngine&) = delete;
  PrecinctEngine& operator=(const PrecinctEngine&) = delete;

  /// Enter world-sharded mode (DESIGN.md §13): this engine simulates only
  /// the nodes `view.owner` maps to `view.domain`; workload generators,
  /// beacons, failure injection and static-copy placement are gated to
  /// owned nodes, correlation ids stride by the domain count, and flood
  /// dedup records carry one bit per owned node.  Must be called before
  /// initialize().
  void set_shard_view(const ShardView& view);

  /// Place initial custody/replica copies and schedule workload generators,
  /// region checks and failure injection.  Call once before running.
  void initialize();

  /// Snapshot counters; everything before this is warm-up.
  void start_measurement();

  /// Compute the metrics for the measurement window.
  [[nodiscard]] Metrics finalize();

  // -- direct drivers (used by tests and examples) ---------------------------

  /// Issue one data request at `peer` for `key` right now.
  void issue_request(net::NodeId peer, geo::Key key) {
    retrieval_->issue(peer, key, /*prefetch=*/false);
  }

  /// Issue an uncounted background fetch (prefetching): traffic and
  /// energy are charged but request metrics are not touched.
  void issue_prefetch(net::NodeId peer, geo::Key key) {
    retrieval_->issue(peer, key, /*prefetch=*/true);
  }

  /// Initiate one update at `peer` for `key` right now.
  void issue_update(net::NodeId peer, geo::Key key) {
    consistency_->initiate_update(peer, key);
  }

  // -- introspection -----------------------------------------------------------

  [[nodiscard]] const cache::CacheStore& cache_of(net::NodeId peer) const {
    return peers_.at(peer).cache;
  }
  /// Test seam: direct mutable access to a peer's cache, used by the
  /// harness tests to deliberately corrupt state and prove the checker
  /// catches it.  Protocol code must never call this.
  [[nodiscard]] cache::CacheStore& mutable_cache_of(net::NodeId peer) {
    return peers_.at(peer).cache;
  }
  /// Installed invariant checker (null when config.check is empty).
  [[nodiscard]] const check::InvariantChecker* checker() const noexcept {
    return checker_.get();
  }
  [[nodiscard]] geo::RegionId region_of(net::NodeId peer) const {
    return peers_.at(peer).region;
  }
  [[nodiscard]] const geo::RegionTable& region_table() const noexcept {
    return regions_;
  }
  [[nodiscard]] const geo::GeoHash& geo_hash() const noexcept { return hash_; }
  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }
  [[nodiscard]] std::size_t pending_requests() const noexcept {
    return retrieval_->pending_count();
  }
  /// Custodian (static-space holder) count for a key across live peers.
  [[nodiscard]] std::size_t custody_count(geo::Key key) const {
    return custody_->custody_count(key);
  }
  /// Lifetime geographic-forwarding drop counters (the measurement-window
  /// delta is surfaced as Metrics::routing by finalize()).
  [[nodiscard]] const RoutingStats& routing_stats() const noexcept {
    return ctx_.route_drops;
  }
  /// The receive-path dispatch table (introspection for tests).
  [[nodiscard]] const net::PacketDispatcher& dispatcher() const noexcept {
    return dispatch_;
  }
  /// Names of the installed scheme implementations.
  [[nodiscard]] const char* retrieval_scheme_name() const noexcept {
    return retrieval_->name();
  }
  [[nodiscard]] const char* consistency_scheme_name() const noexcept {
    return consistency_->name();
  }

  /// Crash a peer mid-run; `graceful` hands custody off first (§2.4).
  void fail_peer(net::NodeId peer, bool graceful) {
    custody_->fail_peer(peer, graceful);
  }

  /// Bring a crashed peer back with fresh state (empty caches, no
  /// custody); it resumes issuing requests and beaconing.
  void revive_peer(net::NodeId peer) { custody_->revive_peer(peer); }

  /// Attach an event tracer (nullptr detaches).  Not owned.
  void set_tracer(sim::Tracer* tracer) noexcept { ctx_.tracer = tracer; }

  // -- region management (§2.1) ----------------------------------------------

  /// Merge regions `a` and `b`: updates the table, floods the new table
  /// through the network at `initiator`'s cost, and relocates custody of
  /// every key whose home/replica set changed.  Returns the new region's
  /// id, or nullopt if either id is unknown.
  std::optional<geo::RegionId> merge_regions(geo::RegionId a, geo::RegionId b,
                                             net::NodeId initiator) {
    return custody_->merge_regions(a, b, initiator);
  }

  /// Separate a region into two halves (same dissemination/relocation
  /// protocol as merge_regions).
  std::optional<std::pair<geo::RegionId, geo::RegionId>> separate_region(
      geo::RegionId id, net::NodeId initiator) {
    return custody_->separate_region(id, initiator);
  }

  /// Peer count per region id (live peers only).
  [[nodiscard]] std::size_t region_population(geo::RegionId region) const {
    return custody_->region_population(region);
  }

 private:
  /// Receive-path prelude shared by every packet kind (position
  /// piggybacking, void-recovery gating), then table dispatch.
  void on_receive(net::NodeId self, const net::Packet& packet);
  void take_timeline_sample();

  PrecinctConfig config_;
  sim::Simulator& sim_;
  net::WirelessNet& net_;
  geo::RegionTable regions_;
  geo::GeoHash hash_;
  workload::DataCatalog& catalog_;
  workload::ZipfGenerator zipf_;
  std::unique_ptr<routing::BeaconNeighborProvider> beacons_;
  routing::Gpsr gpsr_;
  routing::FloodController flood_;
  support::Rng rng_;

  std::vector<PeerState> peers_;
  Metrics metrics_;
  EngineContext ctx_;

  std::unique_ptr<RetrievalScheme> retrieval_;
  std::unique_ptr<ConsistencyScheme> consistency_;
  std::unique_ptr<CustodyManager> custody_;
  std::unique_ptr<WorkloadDriver> workload_;
  std::unique_ptr<check::InvariantChecker> checker_;
  net::PacketDispatcher dispatch_;

  double measure_start_ = 0.0;
  double energy_at_start_ = 0.0;
  double energy_broadcast_at_start_ = 0.0;
  double energy_p2p_at_start_ = 0.0;
  std::uint64_t msgs_at_start_ = 0;
  std::uint64_t bytes_at_start_ = 0;
  std::uint64_t wire_sent_at_start_ = 0;
  std::uint64_t wire_received_at_start_ = 0;
  std::uint64_t consistency_msgs_at_start_ = 0;
  std::uint64_t frames_lost_at_start_ = 0;
  double energy_channel_at_start_ = 0.0;
  std::uint64_t channel_drops_at_start_ = 0;
  std::array<std::uint64_t, 4> channel_drops_by_cause_at_start_{};
  RoutingStats route_drops_at_start_;
};

}  // namespace precinct::core
