// WorldShardedScenario: ONE PReCinCt world cut into region-column domains
// and advanced in parallel by the conservative executor (DESIGN.md §11,
// §13).
//
// Every domain simulates the SAME world: each holds a full same-seed
// Scenario replica (identical catalog, mobility, radio and engine
// streams), but only *drives* the nodes whose t=0 position falls in its
// region columns.  Real protocol frames cross the cut: a
// transmission whose padded radio disc can reach another domain's nodes
// is marshalled through the executor's mailboxes at its arrival instant
// and re-delivered there against the replica's own (exact) positions —
// retrieval, custody handoff and consistency traffic straddle the cut
// unmodified.
//
// Two structural rules make `shards = K` byte-identical to `shards = 1`
// for every K:
//
//   * the domain decomposition is fixed by the config (one domain per
//     region column); `shards` only maps domains onto worker threads, so
//     what crosses the cut — and in which (due, src, seq) order it is
//     merged — never depends on K;
//
//   * the conservative lookahead is *derived* from the radio's timing
//     floor (WirelessNet::world_lookahead: MAC overhead + propagation),
//     not configured: every cross-domain frame's arrival is provably at
//     least one lookahead after its transmission, so no window ever sees
//     a message from its past (ShardExecutor::post throws otherwise).
//
// Ownership halo: owned kill/revive/region changes are posted as deltas
// applied by the other domains at window boundaries, so remote replicas
// track liveness and region assignment with at most one window of
// staleness (bounded by the lookahead, ~0.6 ms at the defaults).
//
// Every domain talks to the others through its core::DomainLink, the
// same link a UDP fleet's daemon uses; here the transport is the
// executor's mailboxes.  A cross-domain conservation audit runs after the
// final window: every posted frame/delta must have been processed at its
// destination except those due beyond the run horizon.  run() throws on
// mismatch.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/domain_link.hpp"
#include "core/metrics.hpp"
#include "core/scenario.hpp"
#include "sim/shard_exec.hpp"

namespace precinct::net {
class WirelessNet;
}  // namespace precinct::net

namespace precinct::core {

/// The per-domain replica config for a world-sharded run: shards collapsed
/// to 1.  The seed is deliberately NOT re-salted — identical
/// catalog/mobility/radio/channel streams are what make the replicated
/// state bit-identical across domains.  Shared with the UDP
/// transport daemon (src/transport), whose per-process replicas must be
/// built exactly like the in-sim oracle's.
[[nodiscard]] PrecinctConfig world_domain_config(const PrecinctConfig& world);

/// Validate that `config` can be world-sharded (no dynamic regions,
/// positive derived lookahead) and return the derived conservative
/// lookahead.  Throws std::invalid_argument otherwise.  Shared with the transport daemon so both executions accept
/// exactly the same configs.
[[nodiscard]] double world_validate(const PrecinctConfig& config);

/// Node id -> owning domain: the region column of each node's t=0
/// position, read from any same-seed replica's radio (every replica
/// computes the identical map).
[[nodiscard]] std::vector<std::uint32_t> world_node_owners(
    const PrecinctConfig& config, net::WirelessNet& reference);

/// Aggregate + per-domain results of a world-sharded run, with the
/// world's conservation ledger.  Everything except `shards` is invariant
/// to the worker count; world_fingerprint() covers exactly the invariant
/// part.
struct WorldShardedMetrics : WorldLedger {
  Metrics aggregate;                 ///< merge_metrics over all domains
  std::vector<Metrics> per_domain;   ///< domain-order window metrics
  std::uint32_t domains = 1;         ///< region-column domains (fixed by config)
  std::uint32_t shards = 1;          ///< workers that ran the domains:
                                     ///< min(config shards, domains,
                                     ///< usable CPUs); excluded from the
                                     ///< fingerprint
  double lookahead_s = 0.0;          ///< derived conservative lookahead
};

/// One domain's section of the world fingerprint: `--- domain d ---`, its
/// wire-byte counters (kept out of core::fingerprint so the pinned plain
/// fingerprints stay byte-identical), then its full metrics fingerprint.
[[nodiscard]] std::string domain_section(std::uint32_t domain,
                                         const Metrics& metrics);

/// The world fingerprint: the domain count, the derived lookahead (`%a`),
/// the ledger, then `sections` — every domain's domain_section, in domain
/// order.  It is the string every execution of one world must agree on:
/// any worker count in-process, and a UDP fleet of daemons (which render
/// their sections themselves and ship them as text).
[[nodiscard]] std::string world_fingerprint(std::uint32_t domains,
                                            double lookahead_s,
                                            const WorldLedger& ledger,
                                            const std::string& sections);

/// world_fingerprint of an in-process run.  The determinism gate diffs
/// it for shards in {1, 2, 4, 8}; the fleet gate diffs it against
/// `precinct_ctl up --fingerprint`.
[[nodiscard]] std::string world_fingerprint(const WorldShardedMetrics& m);

class WorldShardedScenario {
 public:
  /// Builds one full-world replica per region column, computes node
  /// ownership from the t=0 positions, and gives every replica its
  /// DomainLink.  Throws std::invalid_argument when the
  /// config cannot be world-sharded (dynamic regions or a non-positive
  /// derived lookahead).
  explicit WorldShardedScenario(const PrecinctConfig& config);
  ~WorldShardedScenario();

  WorldShardedScenario(const WorldShardedScenario&) = delete;
  WorldShardedScenario& operator=(const WorldShardedScenario&) = delete;

  /// Warm-up + measurement across all domains, then the frame/delta
  /// conservation audit (throws std::logic_error on a leak).  One-shot.
  WorldShardedMetrics run();

  [[nodiscard]] std::size_t domain_count() const noexcept {
    return domains_.size();
  }
  [[nodiscard]] Scenario& domain(std::size_t i) { return *domains_.at(i); }
  /// Node id -> owning domain (the region column of its t=0 position).
  [[nodiscard]] const std::vector<std::uint32_t>& owner() const noexcept {
    return owner_;
  }
  [[nodiscard]] sim::ShardExecutor& executor() noexcept { return *exec_; }
  /// The derived conservative lookahead (MAC overhead + propagation).
  [[nodiscard]] double lookahead_s() const noexcept { return lookahead_s_; }
  [[nodiscard]] const PrecinctConfig& config() const noexcept {
    return config_;
  }

 private:
  class Link;  // DomainLink over the executor's mailboxes

  PrecinctConfig config_;
  double lookahead_s_ = 0.0;
  std::vector<std::uint32_t> owner_;  ///< node -> domain
  std::vector<std::unique_ptr<Scenario>> domains_;
  std::unique_ptr<sim::ShardExecutor> exec_;
  std::vector<std::unique_ptr<Link>> links_;  ///< one per domain
  bool ran_ = false;
};

/// Convenience: build, run, return.
[[nodiscard]] WorldShardedMetrics run_world_scenario(
    const PrecinctConfig& config);

}  // namespace precinct::core
