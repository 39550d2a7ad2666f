// CustodyManager — custody and membership (paper §2.1, §2.3, §2.4):
// initial custody/replica placement, key custody handoff on inter-region
// mobility, failure and churn handling, and runtime region management
// (merge/separate) with table dissemination and custody relocation.
//
// Communicates with the rest of the stack only via packets and the
// EngineContext (DESIGN.md §8); it owns the kKeyTransfer and
// kRegionUpdate packet kinds.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "core/engine_context.hpp"

namespace precinct::core {

class CustodyManager {
 public:
  explicit CustodyManager(EngineContext& ctx) noexcept : ctx_(ctx) {}

  CustodyManager(const CustodyManager&) = delete;
  CustodyManager& operator=(const CustodyManager&) = delete;

  /// kKeyTransfer receive path: adopt a handed-off custody copy, or
  /// forward it toward its target.
  void handle_key_transfer(net::NodeId self, const net::Packet& packet);
  /// kRegionUpdate receive path: relay the region-table flood.
  void handle_region_update(net::NodeId self, const net::Packet& packet);

  /// Deploy every item's custody copy at a peer in its home region (and a
  /// replica at the replica region, §2.4).
  void place_initial_copies();

  /// One region-boundary check for `peer` (§2.3); hands custody off on a
  /// region change and reschedules itself.
  void check_region(net::NodeId peer);

  /// Crash a peer mid-run; `graceful` hands custody off first (§2.4).
  void fail_peer(net::NodeId peer, bool graceful);

  /// Bring a crashed peer back with fresh state (empty caches, no
  /// custody); it resumes issuing requests and beaconing.
  void revive_peer(net::NodeId peer);

  /// Merge regions `a` and `b`: updates the table, floods the new table
  /// through the network at `initiator`'s cost, and relocates custody of
  /// every key whose home/replica set changed.  Returns the new region's
  /// id, or nullopt if either id is unknown.
  std::optional<geo::RegionId> merge_regions(geo::RegionId a, geo::RegionId b,
                                             net::NodeId initiator);

  /// Separate a region into two halves (same dissemination/relocation
  /// protocol as merge_regions).
  std::optional<std::pair<geo::RegionId, geo::RegionId>> separate_region(
      geo::RegionId id, net::NodeId initiator);

  /// Arm the periodic merge/separate rebalancing loop (dynamic regions).
  void schedule_rebalance();

  /// Peer count per region id (live peers only).
  [[nodiscard]] std::size_t region_population(geo::RegionId region) const;

  /// Custodian (static-space holder) count for a key across live peers.
  [[nodiscard]] std::size_t custody_count(geo::Key key) const;

 private:
  /// Another live peer in `holder`'s region already holding `key`'s
  /// custody copy (kNoNode if none) — the custody-uniqueness guard
  /// consulted before adopting a transfer or re-homing after a merge.
  [[nodiscard]] net::NodeId duplicate_custodian(net::NodeId holder,
                                                geo::Key key) const;
  void handoff_custody(net::NodeId peer, geo::RegionId old_region);
  [[nodiscard]] net::NodeId pick_custody_target(net::NodeId mover,
                                                geo::RegionId region);
  /// Flood the updated region table from `initiator` and refresh every
  /// peer's region id; then relocate custody displaced by the change.
  void commit_region_change(net::NodeId initiator);
  void relocate_displaced_custody();
  void maybe_rebalance_regions();

  EngineContext& ctx_;
};

}  // namespace precinct::core
