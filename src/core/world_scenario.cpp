#include "core/world_scenario.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "geo/shard_partition.hpp"
#include "net/packet.hpp"
#include "net/wireless_net.hpp"

namespace precinct::core {

PrecinctConfig world_domain_config(const PrecinctConfig& world) {
  PrecinctConfig c = world;
  // Every domain is a full same-seed replica of the ONE world: identical
  // catalog/mobility/radio/channel streams are what make replicated
  // state (positions, catalog, placement plans) bit-identical across
  // domains — so the seed is deliberately NOT re-salted.
  c.shards = 1;
  return c;
}

double world_validate(const PrecinctConfig& config) {
  config.validate();
  if (config.dynamic_regions) {
    throw std::invalid_argument(
        "WorldShardedScenario: dynamic_regions reconfigures the region "
        "table globally and cannot be world-sharded");
  }
  const double lookahead = net::WirelessNet::world_lookahead(config.wireless);
  if (!(lookahead > 0.0)) {
    throw std::invalid_argument(
        "WorldShardedScenario: derived lookahead (mac_overhead_s + "
        "propagation_s) must be > 0 — a zero-latency radio admits no "
        "conservative window");
  }
  return lookahead;
}

std::vector<std::uint32_t> world_node_owners(const PrecinctConfig& config,
                                             net::WirelessNet& reference) {
  std::vector<std::uint32_t> owner(config.n_nodes);
  const double min_x = config.area.min.x;
  const double width = config.area.width();
  for (net::NodeId i = 0; i < config.n_nodes; ++i) {
    owner[i] = geo::world_column_of(reference.position(i).x, min_x, width,
                                    config.regions_x);
  }
  return owner;
}

/// Routes WorldCoupler posts into the executor's mailboxes and keeps the
/// conservation counters.  Every counter cell is cache-line padded and
/// single-writer: posted_[src][dst] is written only by the worker
/// computing domain src, processed_[dst][src] only by the worker
/// computing dst (the callback runs on dst's simulator).  Totals are read
/// after run_until() has joined its cohort.
class WorldShardedScenario::Coupler final : public net::WorldCoupler {
 public:
  Coupler(WorldShardedScenario& world, std::uint32_t n_domains,
          double horizon)
      : world_(world),
        n_(n_domains),
        horizon_(horizon),
        posted_(static_cast<std::size_t>(n_domains) * n_domains),
        processed_(static_cast<std::size_t>(n_domains) * n_domains) {}

  void post_frame(std::uint32_t src_domain, std::uint32_t dst_domain,
                  double due, const net::Packet& packet, bool is_unicast,
                  net::NodeId next_hop) override {
    PostCell& cell = posted_[idx(src_domain, dst_domain)];
    ++cell.frames;
    if (beyond_horizon(src_domain, due)) ++cell.frames_beyond;
    world_.exec_->post(
        src_domain, dst_domain, due,
        [this, src_domain, dst_domain, packet, is_unicast, next_hop] {
          ++processed_[idx(dst_domain, src_domain)].frames;
          net::WirelessNet& net = world_.domains_[dst_domain]->network();
          if (is_unicast) {
            net.deliver_remote_unicast(packet, next_hop);
          } else {
            net.deliver_remote_broadcast(packet);
          }
        });
  }

  void post_liveness(std::uint32_t src_domain, net::NodeId node, bool alive,
                     double now) override {
    post_delta(src_domain, now,
               [this, node, alive](std::uint32_t dst) {
                 world_.domains_[dst]->network().apply_remote_liveness(node,
                                                                       alive);
               });
  }

  void post_region(std::uint32_t src_domain, net::NodeId node,
                   geo::RegionId region, double now) override {
    post_delta(src_domain, now,
               [this, node, region](std::uint32_t dst) {
                 world_.domains_[dst]->network().apply_remote_region(node,
                                                                     region);
               });
  }

  void post_catalog_update(std::uint32_t src_domain, geo::Key key,
                           std::uint64_t version, double now) override {
    // Replicas merge monotonically; `now` (the write instant in the
    // updater's domain) becomes the replica's last_update_s, so every
    // catalog agrees on when the version was written.
    post_delta(src_domain, now,
               [this, key, version, now](std::uint32_t dst) {
                 world_.domains_[dst]->catalog().observe_update(key, version,
                                                                now);
               });
  }

  /// Fold the per-cell counters into the run's metrics (call only after
  /// the final run_until has returned — single-threaded again).
  void accumulate(WorldShardedMetrics& m) const {
    for (const PostCell& c : posted_) {
      m.frames_posted += c.frames;
      m.frames_beyond_horizon += c.frames_beyond;
      m.deltas_posted += c.deltas;
      m.deltas_beyond_horizon += c.deltas_beyond;
    }
    for (const ProcCell& c : processed_) {
      m.frames_processed += c.frames;
      m.deltas_processed += c.deltas;
    }
  }

 private:
  struct alignas(64) PostCell {
    std::uint64_t frames = 0;
    std::uint64_t frames_beyond = 0;
    std::uint64_t deltas = 0;
    std::uint64_t deltas_beyond = 0;
  };
  struct alignas(64) ProcCell {
    std::uint64_t frames = 0;
    std::uint64_t deltas = 0;
  };

  [[nodiscard]] std::size_t idx(std::uint32_t a, std::uint32_t b) const {
    return static_cast<std::size_t>(a) * n_ + b;
  }

  /// True when a message due then will never execute: either it is due
  /// after the run horizon, or it is due exactly at the horizon but was
  /// posted during the final window — the executor merges that window's
  /// mail after its compute phase, and no compute phase follows.
  [[nodiscard]] bool beyond_horizon(std::uint32_t src, double due) const {
    return due > horizon_ ||
           (due == horizon_ && world_.exec_->window_end(src) >= horizon_);
  }

  /// One halo delta fans out to every other domain at the current window
  /// boundary (the earliest due the conservative bound admits; while the
  /// executor is idle that is `now` itself, so init-time deltas merge
  /// before the first window).
  template <typename ApplyAt>
  void post_delta(std::uint32_t src, double now, ApplyAt apply_at) {
    const double due = std::max(now, world_.exec_->window_end(src));
    const bool beyond = beyond_horizon(src, due);
    for (std::uint32_t dst = 0; dst < n_; ++dst) {
      if (dst == src) continue;
      PostCell& cell = posted_[idx(src, dst)];
      ++cell.deltas;
      if (beyond) ++cell.deltas_beyond;
      world_.exec_->post(src, dst, due, [this, src, dst, apply_at] {
        ++processed_[idx(dst, src)].deltas;
        apply_at(dst);
      });
    }
  }

  WorldShardedScenario& world_;
  std::uint32_t n_;
  double horizon_;
  std::vector<PostCell> posted_;     // src * n + dst
  std::vector<ProcCell> processed_;  // dst * n + src
};

WorldShardedScenario::WorldShardedScenario(const PrecinctConfig& config)
    : config_(config), lookahead_s_(world_validate(config_)) {
  const std::uint32_t n_domains = config_.regions_x;
  domains_.reserve(n_domains);
  for (std::uint32_t d = 0; d < n_domains; ++d) {
    domains_.push_back(
        std::make_unique<Scenario>(world_domain_config(config_)));
  }

  // Ownership: the region column of each node's t=0 position.  Replica 0
  // answers for everyone — all replicas share the mobility streams, so
  // every domain would compute the identical map.
  owner_ = world_node_owners(config_, domains_[0]->network());

  coupler_ =
      std::make_unique<Coupler>(*this, n_domains, config_.end_time_s());

  std::vector<sim::Simulator*> sims;
  sims.reserve(n_domains);
  for (const auto& d : domains_) sims.push_back(&d->simulator());
  // Region-column domains -> worker shards; K > regions_x clamps (a
  // worker with no domain is dead weight, never a correctness concern).
  geo::ShardPartition partition =
      geo::partition_grid(n_domains, config_.shards);
  sim::ShardExecutor::Options opts;
  opts.n_shards = partition.n_shards;
  opts.lookahead_s = lookahead_s_;
  exec_ = std::make_unique<sim::ShardExecutor>(
      std::move(sims), std::move(partition.shard_of), opts);

  for (std::uint32_t d = 0; d < n_domains; ++d) {
    net::WorldShardBinding binding;
    binding.domain = d;
    binding.n_domains = n_domains;
    binding.owner = owner_.data();
    binding.coupler = coupler_.get();
    domains_[d]->network().bind_world_shard(binding);
    ShardView view;
    view.domain = d;
    view.n_domains = n_domains;
    view.owner = owner_.data();
    domains_[d]->engine().set_shard_view(view);
  }
}

WorldShardedScenario::~WorldShardedScenario() = default;

WorldShardedMetrics WorldShardedScenario::run() {
  if (ran_) throw std::logic_error("WorldShardedScenario::run: already ran");
  ran_ = true;
  for (const auto& d : domains_) d->engine().initialize();
  // Warm-up and measurement as separate executor runs: the phase boundary
  // is an exact window boundary for every worker count, so flipping the
  // measurement switch between them is K-invariant.
  exec_->run_until(config_.warmup_s);
  for (const auto& d : domains_) d->engine().start_measurement();
  exec_->run_until(config_.end_time_s());

  WorldShardedMetrics out;
  out.domains = static_cast<std::uint32_t>(domains_.size());
  out.shards = exec_->n_shards();
  out.lookahead_s = lookahead_s_;
  out.per_domain.reserve(domains_.size());
  for (const auto& d : domains_) {
    out.per_domain.push_back(d->engine().finalize());
  }
  out.aggregate = merge_metrics(out.per_domain);
  out.windows = exec_->windows();
  out.messages_merged = exec_->messages_merged();
  coupler_->accumulate(out);

  // Cross-domain conservation audit: every marshalled frame and halo
  // delta must have executed at its destination, except the ones whose
  // due lies beyond the run horizon.  A leak here means a mailbox,
  // merge-order or ownership bug — fail loudly, never publish metrics.
  const std::uint64_t frames_expected =
      out.frames_posted - out.frames_beyond_horizon;
  const std::uint64_t deltas_expected =
      out.deltas_posted - out.deltas_beyond_horizon;
  if (out.frames_processed != frames_expected ||
      out.deltas_processed != deltas_expected) {
    throw std::logic_error(
        "WorldShardedScenario: cross-domain conservation violated: frames " +
        std::to_string(out.frames_processed) + "/" +
        std::to_string(frames_expected) + ", deltas " +
        std::to_string(out.deltas_processed) + "/" +
        std::to_string(deltas_expected));
  }
  return out;
}

std::string world_fingerprint(const WorldShardedMetrics& m) {
  std::string out;
  char line[96];
  const auto put = [&](const char* key, const char* fmt, auto value) {
    out += key;
    std::snprintf(line, sizeof(line), fmt, value);
    out += line;
    out += '\n';
  };
  // Deliberately excludes m.shards: it encodes how many workers did the
  // work, and the whole point of this string is that nothing else may
  // depend on that.
  put("domains=", "%" PRIu32, m.domains);
  put("lookahead=", "%a", m.lookahead_s);
  put("frames_posted=", "%" PRIu64, m.frames_posted);
  put("frames_processed=", "%" PRIu64, m.frames_processed);
  put("frames_beyond_horizon=", "%" PRIu64, m.frames_beyond_horizon);
  put("deltas_posted=", "%" PRIu64, m.deltas_posted);
  put("deltas_processed=", "%" PRIu64, m.deltas_processed);
  put("deltas_beyond_horizon=", "%" PRIu64, m.deltas_beyond_horizon);
  put("windows=", "%" PRIu64, m.windows);
  put("messages_merged=", "%" PRIu64, m.messages_merged);
  out += "--- aggregate ---\n";
  out += fingerprint(m.aggregate);
  for (std::size_t d = 0; d < m.per_domain.size(); ++d) {
    out += "--- domain ";
    std::snprintf(line, sizeof(line), "%zu", d);
    out += line;
    out += " ---\n";
    out += fingerprint(m.per_domain[d]);
  }
  return out;
}

WorldShardedMetrics run_world_scenario(const PrecinctConfig& config) {
  WorldShardedScenario scenario(config);
  return scenario.run();
}

}  // namespace precinct::core
