#include "core/world_scenario.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <variant>

#include "geo/shard_partition.hpp"
#include "net/wireless_net.hpp"
#include "support/thread_pool.hpp"

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

/// A domain's link over the executor: window_end() is the window the
/// domain's worker is computing, and send() posts into the (src, dst)
/// mailbox a closure that applies the message on dst's simulator.
class WorldShardedScenario::Link final : public DomainLink {
 public:
  Link(WorldShardedScenario& world, std::uint32_t domain)
      : DomainLink(*world.domains_[domain], domain, world.owner_),
        world_(world) {}

 private:
  [[nodiscard]] double window_end() const override {
    return world_.exec_->window_end(domain());
  }

  void send(std::uint32_t dst, const transport::DataMsg& msg) override {
    Link* to = world_.links_[dst].get();
    // Capture the concrete message, not the variant: a halo delta's
    // closure then fits EventCallback's inline buffer.
    std::visit(
        [&](const auto& m) {
          world_.exec_->post(domain(), dst, m.due, [to, m] { to->apply(m); });
        },
        msg);
  }

  WorldShardedScenario& world_;
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

  std::vector<sim::Simulator*> sims;
  sims.reserve(n_domains);
  for (const auto& d : domains_) sims.push_back(&d->simulator());
  // Region-column domains -> min(shards, domains, usable CPUs) workers.
  // A worker with no domain is dead weight, and one more worker than the
  // CPUs that can run it turns every window's barrier into a futex
  // hand-off between threads that take turns; on one CPU every domain
  // runs inline on the caller.  The cohort size only decides which
  // thread runs a domain, never the result.
  const auto workers = static_cast<std::uint32_t>(
      std::min<std::size_t>(support::usable_cpus(), config_.shards));
  geo::ShardPartition partition = geo::partition_grid(n_domains, workers);
  sim::ShardExecutor::Options opts;
  opts.n_shards = partition.n_shards;
  opts.lookahead_s = lookahead_s_;
  exec_ = std::make_unique<sim::ShardExecutor>(
      std::move(sims), std::move(partition.shard_of), opts);

  links_.reserve(n_domains);
  for (std::uint32_t d = 0; d < n_domains; ++d) {
    links_.push_back(std::make_unique<Link>(*this, d));
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

  // The links counted what each domain posted and applied; the executor
  // ran every window and merge for all domains at once.
  WorldLedger& ledger = out;
  ledger = links_.front()->ledger();
  for (std::size_t d = 1; d < links_.size(); ++d) {
    ledger.add_domain(links_[d]->ledger());
  }
  ledger.windows = exec_->windows();
  ledger.messages_merged = exec_->messages_merged();
  // A leak here means a mailbox, merge-order or ownership bug — fail
  // loudly, never publish metrics.
  ledger.audit();
  return out;
}

std::string domain_section(std::uint32_t domain, const Metrics& metrics) {
  char head[128];
  std::snprintf(head, sizeof(head),
                "--- domain %" PRIu32 " ---\nwire_bytes_sent=%" PRIu64
                "\nwire_bytes_received=%" PRIu64 "\n",
                domain, metrics.wire_bytes_sent, metrics.wire_bytes_received);
  return head + fingerprint(metrics);
}

std::string world_fingerprint(std::uint32_t domains, double lookahead_s,
                              const WorldLedger& ledger,
                              const std::string& sections) {
  char line[96];
  std::snprintf(line, sizeof(line), "domains=%" PRIu32 "\nlookahead=%a\n",
                domains, lookahead_s);
  std::string out = line;
  for (const LedgerField& f : kLedgerFields) {
    std::snprintf(line, sizeof(line), "%s=%" PRIu64 "\n", f.name,
                  ledger.*f.count);
    out += line;
  }
  return out + sections;
}

std::string world_fingerprint(const WorldShardedMetrics& m) {
  // Deliberately excludes m.shards: it encodes how many workers did the
  // work, and the whole point of this string is that nothing else may
  // depend on that.
  std::string sections;
  for (std::size_t d = 0; d < m.per_domain.size(); ++d) {
    sections += domain_section(static_cast<std::uint32_t>(d), m.per_domain[d]);
  }
  return world_fingerprint(m.domains, m.lookahead_s, m, sections);
}

WorldShardedMetrics run_world_scenario(const PrecinctConfig& config) {
  WorldShardedScenario scenario(config);
  return scenario.run();
}

}  // namespace precinct::core
