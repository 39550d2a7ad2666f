#include "core/engine.hpp"

#include "check/invariant_checker.hpp"

namespace precinct::core {

PrecinctEngine::PrecinctEngine(const PrecinctConfig& config,
                               sim::Simulator& simulator,
                               net::WirelessNet& network,
                               geo::RegionTable region_table,
                               workload::DataCatalog& catalog)
    : config_(config),
      sim_(simulator),
      net_(network),
      regions_(std::move(region_table)),
      hash_(config.area),
      catalog_(catalog),
      zipf_(catalog.size(), config.zipf_theta),
      beacons_(config.use_beacons
                   ? std::make_unique<routing::BeaconNeighborProvider>(
                         network, network.node_count(),
                         config.neighbor_lifetime_s)
                   : nullptr),
      gpsr_(network, beacons_.get()),
      flood_(network.node_count()),
      rng_(support::hash_combine(config.seed, 0xEC61)),
      ctx_(config_, sim_, net_, regions_, hash_, catalog_, zipf_, gpsr_,
           flood_, rng_, peers_, metrics_),
      retrieval_(ctx_),
      consistency_(ctx_),
      custody_(ctx_),
      workload_(ctx_) {
  const std::size_t capacity =
      config_.cache_capacity_bytes(catalog_.total_bytes());
  peers_.reserve(net_.node_count());
  for (net::NodeId i = 0; i < net_.node_count(); ++i) {
    std::size_t peer_capacity = capacity;
    if (!config_.node_classes.empty()) {
      const NodeClassConfig& cls =
          config_.node_classes[config_.class_of(i)];
      if (cls.cache_kb > 0.0) {
        peer_capacity = static_cast<std::size_t>(cls.cache_kb * 1024.0);
      }
      net_.node_state().set_fixed(i, cls.fixed);
    }
    peers_.emplace_back(peer_capacity,
                        cache::make_policy(config_.cache_policy,
                                           config_.gdld_weights),
                        rng_.split(i));
  }
  ctx_.beacons = beacons_.get();
  ctx_.refresh_region_diameter();

  ctx_.retrieval = &retrieval_;
  ctx_.consistency = &consistency_;
  ctx_.custody = &custody_;
  ctx_.workload = &workload_;

  net_.set_receive_handler(
      [this](net::NodeId self, const net::Packet& packet) {
        on_receive(self, packet);
      });
  if (beacons_ && config_.beacon_piggyback) {
    net_.set_snoop_handler(
        [this](net::NodeId self, const net::Packet& packet) {
          beacons_->on_beacon(self, packet.src, packet.src_location,
                              sim_.now());
        });
  }

  // Correctness harness (DESIGN.md §10): audit the selected invariant
  // categories from the simulator's observe-only post-event hook.  With
  // config_.check empty no hook is installed and the drain loop is
  // untouched, so runs with checks off stay byte-identical.
  if (!config_.check.empty()) {
    checker_ = std::make_unique<check::InvariantChecker>(
        ctx_, check::parse_categories(config_.check), config_.check_stride);
    ctx_.checker = checker_.get();
    sim_.set_post_event_hook([this] { checker_->on_event(); });
  }
}

void PrecinctEngine::set_shard_view(const ShardView& view) {
  ctx_.shard = view;
  ctx_.stride_correlation_ids(view.domain + 1, view.n_domains);
  // Every mark_seen caller in a domain is an owned receiver, requester or
  // forwarder, so a foreign mark is a broken ownership rule and throws.
  std::vector<net::NodeId> owned;
  for (net::NodeId i = 0; i < net_.node_count(); ++i) {
    if (view.owns(i)) owned.push_back(i);
  }
  flood_.restrict_to(owned);
}

PrecinctEngine::~PrecinctEngine() {
  // The simulator outlives the engine in some harnesses; never leave a
  // hook pointing at a dead checker.
  if (checker_ != nullptr) sim_.set_post_event_hook({});
}

void PrecinctEngine::initialize() {
  // Every node gets a region — replicas included, so routing/custody
  // sweeps see the full world.  World-sharded runs replicate this loop
  // identically in every domain (same positions from the shared-seed
  // mobility oracle); the workload loops below run for owned nodes only.
  for (net::NodeId i = 0; i < net_.node_count(); ++i) {
    ctx_.set_region(i, regions_.containing(net_.position(i)));
  }
  custody_.place_initial_copies();
  for (net::NodeId i = 0; i < net_.node_count(); ++i) {
    if (!ctx_.shard.owns(i)) continue;
    workload_.schedule_next_request(i);
    if (config_.updates_enabled && consistency_.generates_updates()) {
      workload_.schedule_next_update(i);
    }
  }
  if (config_.mobile) workload_.schedule_region_checks();
  if (config_.zipf_drift_per_s != 0.0) workload_.schedule_zipf_drift();
  if (config_.crash_rate_per_s > 0.0) workload_.schedule_crashes();
  if (config_.join_rate_per_s > 0.0) workload_.schedule_joins();
  if (config_.use_beacons) {
    for (net::NodeId i = 0; i < net_.node_count(); ++i) {
      if (!ctx_.shard.owns(i)) continue;
      workload_.schedule_beacon(i);
    }
  }
  if (config_.dynamic_regions) custody_.schedule_rebalance();
  if (!config_.workload_script.empty()) {
    // Every replica loads the same file; schedule_script applies only the
    // owned nodes' lines, so a world-sharded fleet runs each line once.
    workload_.schedule_script(
        workload::load_script(config_.workload_script));
  }
}

void PrecinctEngine::on_receive(net::NodeId self, const net::Packet& packet) {
  // `packet` is the radio's pooled frame, shared by every receiver of the
  // batch: it is never written here (see the recovery branch).
  // Piggybacked position learning: any frame heard from src is as good
  // as a beacon from it.
  if (beacons_ != nullptr && config_.beacon_piggyback &&
      packet.src != net::kNoNode) {
    beacons_->on_beacon(self, packet.src, packet.src_location, sim_.now());
  }
  if (packet.recovery) {
    // Void-recovery admission: participate at most once per packet, and
    // only when strictly closer to the destination than the stuck node —
    // progress stays monotone, so recovery cannot storm.
    if (!flood_.mark_seen(self, packet.id)) return;
    if (geo::distance(net_.position(self), packet.dest_location) >=
        geo::distance(net_.position(packet.src), packet.dest_location)) {
      return;
    }
    net::Packet admitted = packet;
    admitted.recovery = false;
    dispatch(self, admitted);
    return;
  }
  dispatch(self, packet);
}

void PrecinctEngine::dispatch(net::NodeId self, const net::Packet& packet) {
  switch (packet.kind) {
    case net::PacketKind::kRequest:
      retrieval_.handle_request(self, packet);
      return;
    case net::PacketKind::kResponse:
      retrieval_.handle_response(self, packet);
      return;
    case net::PacketKind::kUpdatePush:
      consistency_.handle_update_push(self, packet);
      return;
    case net::PacketKind::kPoll:
      consistency_.handle_poll(self, packet);
      return;
    case net::PacketKind::kPollReply:
      consistency_.handle_poll_reply(self, packet);
      return;
    case net::PacketKind::kInvalidation:
      consistency_.handle_invalidation(self, packet);
      return;
    case net::PacketKind::kKeyTransfer:
      custody_.handle_key_transfer(self, packet);
      return;
    case net::PacketKind::kRegionUpdate:
      custody_.handle_region_update(self, packet);
      return;
    case net::PacketKind::kPushAck:
      consistency_.handle_push_ack(self, packet);
      return;
    case net::PacketKind::kBeacon:
      workload_.handle_beacon(self, packet);
      return;
  }
}

// ---------------------------------------------------------------------------
// measurement
// ---------------------------------------------------------------------------

void PrecinctEngine::take_timeline_sample() {
  Metrics::Sample sample;
  sample.t_s = sim_.now() - measure_start_;
  sample.requests_completed = metrics_.requests_completed;
  sample.hit_ratio = metrics_.hit_ratio();
  sample.avg_latency_s = metrics_.avg_latency_s();
  sample.energy_mj =
      net_.energy().network_total().total_mj() - energy_at_start_;
  metrics_.timeline.push_back(sample);
  sim_.schedule(config_.sample_interval_s,
                [this] { take_timeline_sample(); });
}

void PrecinctEngine::start_measurement() {
  ctx_.measuring = true;
  measure_start_ = sim_.now();
  metrics_ = Metrics{};
  const auto energy_now = net_.energy().network_total();
  energy_at_start_ = energy_now.total_mj();
  energy_broadcast_at_start_ =
      energy_now.broadcast_send_mj + energy_now.broadcast_recv_mj;
  energy_p2p_at_start_ =
      energy_now.p2p_send_mj + energy_now.p2p_recv_mj +
      energy_now.p2p_discard_mj;
  msgs_at_start_ = net_.stats().total_sends();
  bytes_at_start_ = net_.stats().total_bytes();
  wire_sent_at_start_ = net_.stats().total_wire_bytes_sent();
  wire_received_at_start_ = net_.stats().total_wire_bytes_received();
  consistency_msgs_at_start_ = net_.stats().consistency_sends();
  frames_lost_at_start_ = net_.frames_lost();
  energy_channel_at_start_ = energy_now.channel_discard_mj;
  channel_drops_at_start_ = net_.frames_dropped_by_channel();
  channel_drops_by_cause_at_start_ = net_.channel_drops_by_cause();
  route_drops_at_start_ = ctx_.route_drops;
  if (config_.sample_interval_s > 0.0) {
    sim_.schedule(config_.sample_interval_s,
                  [this] { take_timeline_sample(); });
  }
}

Metrics PrecinctEngine::finalize() {
  const auto energy = net_.energy().network_total();
  metrics_.energy_total_mj = energy.total_mj() - energy_at_start_;
  metrics_.energy_broadcast_mj =
      energy.broadcast_send_mj + energy.broadcast_recv_mj -
      energy_broadcast_at_start_;
  metrics_.energy_p2p_mj = energy.p2p_send_mj + energy.p2p_recv_mj +
                           energy.p2p_discard_mj - energy_p2p_at_start_;
  metrics_.messages_sent = net_.stats().total_sends() - msgs_at_start_;
  metrics_.bytes_sent = net_.stats().total_bytes() - bytes_at_start_;
  metrics_.wire_bytes_sent =
      net_.stats().total_wire_bytes_sent() - wire_sent_at_start_;
  metrics_.wire_bytes_received =
      net_.stats().total_wire_bytes_received() - wire_received_at_start_;
  metrics_.consistency_messages =
      net_.stats().consistency_sends() - consistency_msgs_at_start_;
  metrics_.frames_lost = net_.frames_lost() - frames_lost_at_start_;
  metrics_.energy_channel_discard_mj =
      energy.channel_discard_mj - energy_channel_at_start_;
  metrics_.frames_dropped_by_channel =
      net_.frames_dropped_by_channel() - channel_drops_at_start_;
  for (std::size_t i = 0; i < metrics_.channel_drops_by_cause.size(); ++i) {
    metrics_.channel_drops_by_cause[i] = net_.channel_drops_by_cause()[i] -
                                         channel_drops_by_cause_at_start_[i];
  }
  metrics_.events_executed = sim_.events_executed();
  metrics_.routing.drops_void =
      ctx_.route_drops.drops_void - route_drops_at_start_.drops_void;
  metrics_.routing.drops_ttl =
      ctx_.route_drops.drops_ttl - route_drops_at_start_.drops_ttl;
  // One last audit so even runs shorter than the stride are checked.
  // Ordered before the pending-to-failed fold below, which breaks the
  // lifecycle identity the checker asserts.
  if (checker_ != nullptr) checker_->audit();
  // Requests still in flight at the end of the window count as failed so
  // success_ratio is conservative.
  metrics_.requests_failed += retrieval_.measured_pending();
  return metrics_;
}

}  // namespace precinct::core
