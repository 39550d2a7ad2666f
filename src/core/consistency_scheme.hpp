// ConsistencyScheme — the cache-consistency axis (paper §4, Fig 6–8).
// One class runs every mode: the per-key TTR estimators, the reliable
// push channel (pushes + custodian acks + retries), poll service at the
// home region and the consistency packet handlers.  The modes differ
// only in how an update propagates and when a cached copy must be
// validated before being served, and those two decisions switch on
// config.consistency.
//
// The scheme talks to the rest of the stack only via packets and the
// EngineContext (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <unordered_map>

#include "consistency/ttr.hpp"
#include "core/engine_context.hpp"

namespace precinct::core {

class ConsistencyScheme {
 public:
  explicit ConsistencyScheme(EngineContext& ctx) noexcept : ctx_(ctx) {}

  ConsistencyScheme(const ConsistencyScheme&) = delete;
  ConsistencyScheme& operator=(const ConsistencyScheme&) = delete;

  /// One write at `peer` to `key`: bumps the catalog version, applies it
  /// to the updater's own copies, then propagates per the mode.
  void initiate_update(net::NodeId peer, geo::Key key);

  /// Does a copy with this much TTR left need validating before being
  /// served?  Consulted by the retrieval scheme on every cached serve:
  /// never without polling (none, Plain-Push), always (Pull-Every-time),
  /// or once the TTR lapsed (Push with Adaptive Pull).
  [[nodiscard]] bool needs_validation(double ttr_remaining_s) const noexcept;

  /// Whether the workload should schedule update traffic at all (the
  /// read-only "none" mode skips the generators).
  [[nodiscard]] bool generates_updates() const noexcept {
    return ctx_.config.consistency != consistency::Mode::kNone;
  }

  // -- receive paths, one per packet kind this module owns ---------------------
  void handle_update_push(net::NodeId self, const net::Packet& packet);
  void handle_poll(net::NodeId self, const net::Packet& packet);
  void handle_poll_reply(net::NodeId self, const net::Packet& packet);
  /// Plain-Push's network-wide invalidation flood.
  void handle_invalidation(net::NodeId self, const net::Packet& packet);
  void handle_push_ack(net::NodeId self, const net::Packet& packet);

  /// Route a poll toward `key`'s home region.  Returns false when there
  /// is no home region to poll.
  bool send_poll(net::NodeId from, geo::Key key, std::uint64_t correlation_id,
                 std::uint64_t known_version);

  /// TTR the home/replica custodian would stamp on a copy of `key` now.
  [[nodiscard]] double custodian_ttr_s(geo::Key key) const;

  /// Observe-only projection of one TTR estimator, exposed for the
  /// invariant checker (Eq. 2 bounds audit).
  struct TtrView {
    geo::Key key = 0;
    double ttr_s = 0.0;
    std::uint64_t updates_seen = 0;
  };
  /// Visit every per-key TTR estimator (unspecified order).
  template <typename Fn>
  void visit_ttr(Fn&& fn) const {
    for (const auto& [key, est] : ttr_) {
      fn(TtrView{key, est.ttr_s(), est.updates_seen()});
    }
  }

  /// Observe-only projection of one un-acked push (retry-budget audit).
  struct PushView {
    net::NodeId updater = net::kNoNode;
    geo::Key key = 0;
    int retries_left = 0;
  };
  /// Visit every push awaiting its custodian ack (unspecified order).
  template <typename Fn>
  void visit_pending_pushes(Fn&& fn) const {
    for (const auto& [id, p] : pending_pushes_) {
      fn(PushView{p.updater, p.key, p.retries_left});
    }
  }

 private:
  /// Propagate a committed write per the mode: flood an invalidation
  /// (Plain-Push), push to the key's regions (the polling modes), or
  /// nothing (none).
  void propagate_update(net::NodeId peer, geo::Key key,
                        std::uint64_t version);

  /// Push phase (Figure 2): route the update to the home region and
  /// every replica region; flooding inside those regions locates the
  /// peer holding the custody copy.
  void push_to_key_regions(net::NodeId peer, geo::Key key,
                           std::uint64_t version);

  /// An update push awaiting its custodian acknowledgement; re-sent on
  /// timeout (the paper assumes updates reliably reach the home region,
  /// which over lossy geographic routing requires an ack + retry).
  struct PendingPush {
    net::NodeId updater = net::kNoNode;
    geo::Key key = 0;
    geo::RegionId region = geo::kInvalidRegion;
    std::uint64_t version = 0;
    int retries_left = 0;
    sim::EventHandle timeout;
  };

  void push_update_to_region(net::NodeId peer, geo::Key key,
                             geo::RegionId region, std::uint64_t version);
  void send_push_packet(std::uint64_t push_id);
  void maybe_ack_push(net::NodeId self, const net::Packet& packet);
  /// Returns true when `self` held custody and applied the update.
  bool apply_custodian_update(net::NodeId self, const net::Packet& packet);

  EngineContext& ctx_;
  std::unordered_map<std::uint64_t, PendingPush> pending_pushes_;
  std::unordered_map<geo::Key, consistency::TtrEstimator> ttr_;
};

}  // namespace precinct::core
