// DomainLink: one domain's end of a world-sharded run's cross-domain
// coupling (DESIGN.md §13, §14).
//
// A world-sharded run cuts one PReCinCt world into region-column domains,
// each holding a full same-seed Scenario replica.  Both executions of
// such a world — WorldShardedScenario's ShardExecutor threads and a fleet
// of NodeDaemon processes — give every domain one DomainLink, so the
// rules of the coupling are written once:
//
//   * the link binds its replica's radio (bind_world_shard) and engine
//     (set_shard_view) as its domain;
//   * as the radio's net::WorldCoupler it enforces the conservative bound
//     (no frame is due before the current window's end), stamps every
//     halo delta with the earliest due that bound admits, and fans deltas
//     out to every other domain;
//   * it keeps its domain's share of the conservation ledger: what it
//     posted, which of that is due beyond the run horizon, and what it
//     applied;
//   * apply() replays a message another domain sent on the replica.
//
// A transport supplies only window_end() and send(): an executor mailbox
// post in-process, a UDP datagram across processes.  What crosses the cut
// and when it applies therefore never depends on the transport.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "net/wireless_net.hpp"
#include "transport/wire_format.hpp"

namespace precinct::core {

class Scenario;

/// The cross-domain conservation ledger of one domain, or summed over a
/// world.  Every message a domain posts is merged at its destination; it
/// executes there unless it is due beyond the run horizon.
struct WorldLedger {
  std::uint64_t windows = 0;          ///< lookahead windows (every domain
                                      ///< runs each one)
  std::uint64_t messages_merged = 0;  ///< messages merged at barriers
  std::uint64_t frames_posted = 0;    ///< cross-domain radio frames sent
  std::uint64_t frames_processed = 0;       ///< applied at the destination
  std::uint64_t frames_beyond_horizon = 0;  ///< due after the run end
  std::uint64_t deltas_posted = 0;     ///< liveness/region/catalog deltas
  std::uint64_t deltas_processed = 0;  ///< applied at the destination
  std::uint64_t deltas_beyond_horizon = 0;

  /// Fold in another domain's ledger: every count sums except `windows`,
  /// which domains share and must agree on (std::invalid_argument
  /// otherwise).
  void add_domain(const WorldLedger& domain);

  /// The conservation audit of a whole world: processed == posted −
  /// beyond_horizon for frames and for deltas.  Throws std::logic_error
  /// naming the processed and expected counts on a leak.
  void audit() const;
};

/// One ledger counter and its name in fingerprints and status files.
struct LedgerField {
  const char* name;
  std::uint64_t WorldLedger::*count;
};

/// Every ledger counter, in the order fingerprints and status files list
/// them.
inline constexpr std::array<LedgerField, 8> kLedgerFields{{
    {"windows", &WorldLedger::windows},
    {"messages_merged", &WorldLedger::messages_merged},
    {"frames_posted", &WorldLedger::frames_posted},
    {"frames_processed", &WorldLedger::frames_processed},
    {"frames_beyond_horizon", &WorldLedger::frames_beyond_horizon},
    {"deltas_posted", &WorldLedger::deltas_posted},
    {"deltas_processed", &WorldLedger::deltas_processed},
    {"deltas_beyond_horizon", &WorldLedger::deltas_beyond_horizon},
}};

class DomainLink : public net::WorldCoupler {
 public:
  /// Bind `replica` as domain `domain` of the replica config's regions_x
  /// region-column domains.  `owner` (node id -> domain) must outlive the
  /// link.  Construct before any traffic flows.
  DomainLink(Scenario& replica, std::uint32_t domain,
             const std::vector<std::uint32_t>& owner);

  DomainLink(const DomainLink&) = delete;
  DomainLink& operator=(const DomainLink&) = delete;

  // -- net::WorldCoupler: the replica's radio posts through these ----------
  void post_frame(std::uint32_t dst_domain, double due,
                  const net::Packet& packet, bool is_unicast,
                  net::NodeId next_hop) final;
  void post_liveness(net::NodeId node, bool alive, double now) final;
  void post_region(net::NodeId node, geo::RegionId region,
                   double now) final;
  void post_catalog_update(geo::Key key, std::uint64_t version,
                           double now) final;

  /// Apply a message another domain sent, at its due time on this
  /// replica's simulator; counts it as processed.
  void apply(const transport::FrameMsg& m);
  void apply(const transport::LivenessMsg& m);
  void apply(const transport::RegionMsg& m);
  void apply(const transport::CatalogMsg& m);

  /// This domain's ledger.  The link counts posts and applies; windows
  /// and merges are the transport's to count.
  [[nodiscard]] WorldLedger& ledger() noexcept { return ledger_; }
  [[nodiscard]] const WorldLedger& ledger() const noexcept {
    return ledger_;
  }

 protected:
  [[nodiscard]] std::uint32_t domain() const noexcept { return domain_; }

 private:
  /// End of the window this domain is computing (the idle time between
  /// windows): the earliest due the conservative bound admits.
  [[nodiscard]] virtual double window_end() const = 0;
  /// Hand `msg` to domain `dst`, which must apply() it at its due time.
  virtual void send(std::uint32_t dst, const transport::DataMsg& msg) = 0;

  /// True when a message due then will never execute: due after the
  /// horizon, or due exactly at it but posted during the final window —
  /// that window's mail merges after its compute phase, and no compute
  /// phase follows.
  [[nodiscard]] bool beyond_horizon(double due) const;
  template <typename Delta>
  void fan_out(Delta delta, double now);

  Scenario& replica_;
  std::uint32_t domain_;
  std::uint32_t n_domains_;
  double horizon_s_;
  /// Written only by the thread running this domain: posts happen in its
  /// compute phase, applies on its simulator.  Own cache line, so links
  /// on different workers never share one.
  alignas(64) WorldLedger ledger_;
};

}  // namespace precinct::core
