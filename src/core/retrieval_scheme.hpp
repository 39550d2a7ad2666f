// RetrievalScheme — the data-search axis (paper §2.2, §3 vs the §6.2
// baselines).  One class runs every variant: the requester-side Pending
// phase machine, responder-side serving with consistency validation,
// completion/metrics accounting and the request/response handlers.  The
// variants differ only in how a search starts and escalates, and those
// few decisions switch on config.retrieval (retrieval_search.cpp).
//
// The scheme talks to the rest of the stack only via packets and the
// EngineContext (DESIGN.md §8); consistency questions (does this copy
// need validating? poll the home region) go to the ConsistencyScheme.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/engine_context.hpp"

namespace precinct::core {

class RetrievalScheme {
 public:
  explicit RetrievalScheme(EngineContext& ctx) noexcept : ctx_(ctx) {}

  RetrievalScheme(const RetrievalScheme&) = delete;
  RetrievalScheme& operator=(const RetrievalScheme&) = delete;

  /// Start one lookup at `peer` for `key`.  A prefetch is an uncounted
  /// background fetch: traffic and energy are charged but request
  /// metrics are not touched.
  void issue(net::NodeId peer, geo::Key key, bool prefetch);

  /// kRequest receive path: serve from a local copy or forward, per the
  /// frame's route mode.  PReCinCt never sends network-flood requests and
  /// the baselines send nothing else, so the mode selects the variant.
  void handle_request(net::NodeId self, const net::Packet& packet);
  /// kResponse receive path: complete the request at its requester,
  /// forward it anywhere else.
  void handle_response(net::NodeId self, const net::Packet& packet);

  /// Tail of a poll reply (called by the ConsistencyScheme once the
  /// reply refreshed the local copy): either completes a requester-side
  /// kValidate request or finishes a responder-side validation poll.
  void on_poll_reply(const net::Packet& packet);

  [[nodiscard]] std::size_t pending_count() const noexcept {
    return pending_.size();
  }
  /// Measured requests still in flight (finalize counts them as failed).
  [[nodiscard]] std::uint64_t measured_pending() const noexcept;

  /// Observe-only projection of one in-flight request, exposed for the
  /// invariant checker without widening access to the phase machine.
  struct PendingView {
    geo::Key key = 0;
    net::NodeId requester = net::kNoNode;
    double created_at = 0.0;
    bool measured = false;
    bool prefetch = false;
    int attempts = 0;
  };
  /// Visit every in-flight request (unspecified order, no allocation).
  template <typename Fn>
  void visit_pending(Fn&& fn) const {
    for (const auto& [id, p] : pending_) {
      fn(PendingView{p.key, p.requester, p.created_at, p.measured, p.prefetch,
                     p.attempts});
    }
  }

 private:
  /// Latency charged to a request served from the peer's own cache: one
  /// protocol processing delay, no radio time.
  static constexpr double kLocalServeLatency = 1e-3;

  // -- requester-side request tracking ----------------------------------------
  /// Each phase belongs to one retrieval kind (kValidate to PReCinCt, the
  /// only kind a polling consistency mode may run with), so a timeout
  /// escalates by its phase alone.
  enum class Phase : std::uint8_t {
    kRegional,  ///< waiting on the local-region flood
    kHome,      ///< waiting on the home-region lookup
    kReplica,   ///< waiting on the replica-region fallback
    kValidate,  ///< have a cached copy, polling the home region
    kRing,      ///< expanding-ring baseline: waiting on the current ring
    kFlood,     ///< flooding baseline: waiting on the network flood
  };
  struct Pending {
    geo::Key key = 0;
    net::NodeId requester = net::kNoNode;
    double created_at = 0.0;
    bool measured = false;
    bool prefetch = false;  ///< background fetch: no metrics, no cascading
    Phase phase = Phase::kRegional;
    int ring_index = 0;
    std::size_t lookup_index = 0;   ///< 0 = home, i > 0 = i-th replica
    int attempts = 0;  ///< retransmissions of the current remote lookup
    bool probed_own_region = false; ///< regional probe already flooded it
    sim::EventHandle timeout;
    // The requester's own copy awaiting validation (kValidate).
    std::uint64_t candidate_version = 0;
    std::size_t candidate_bytes = 0;
    geo::RegionId candidate_region = geo::kInvalidRegion;
  };
  /// A responder validating its own expired-TTR copy before serving: the
  /// original request is parked until the home region answers the poll.
  struct ResponderPoll {
    net::NodeId responder = net::kNoNode;
    net::Packet request;  ///< the request being served
    HitClass hit_class = HitClass::kRegionalCache;
    sim::EventHandle timeout;
  };

  // -- search (retrieval_search.cpp) ------------------------------------------
  /// Launch the first search step for a request that missed locally.
  void start_search(std::uint64_t request_id);
  /// Re-enter the search after a failed validation (the candidate copy
  /// was dropped; fetch through the normal path).
  void restart_search(std::uint64_t request_id);
  /// Escalate after `phase` timed out (poll lost, next lookup, next
  /// replica, next ring, give up).
  void on_timeout(std::uint64_t request_id, Phase phase);
  /// PReCinCt: flood the requester's own region; any peer's cached copy
  /// answers (the cumulative-cache probe, §3.1).
  void start_regional_probe(std::uint64_t request_id);
  /// PReCinCt: route the request to the home region (lookup_index 0) or
  /// the i-th replica region; fails the request when the chain is
  /// exhausted.
  void start_remote_lookup(std::uint64_t request_id,
                           std::size_t lookup_index);
  /// PReCinCt: (re)send the current remote lookup and arm its timeout;
  /// the k-th retransmission waits 2^k * remote_timeout_s.
  void send_remote_lookup(std::uint64_t request_id);
  /// Baselines: launch the next flood round, the whole network (flooding)
  /// or the current ring (expanding ring).
  void start_flood(std::uint64_t request_id);

  // -- shared requester-side flow -----------------------------------------------
  void serve_from_own_cache(net::NodeId peer, std::uint64_t request_id,
                            const cache::CacheEntry& entry, bool is_custody);
  void start_validation(std::uint64_t request_id);
  void complete_request(std::uint64_t request_id, HitClass hit_class,
                        std::uint64_t version, std::size_t item_bytes,
                        double ttr_remaining_s,
                        geo::RegionId responder_region);
  void fail_request(std::uint64_t request_id);
  /// Fire popularity-gradient prefetches after a remote fetch (extension).
  void maybe_prefetch(net::NodeId peer);

  // -- shared responder-side flow -------------------------------------------------
  /// Serve `request` from a non-custody copy: if the consistency scheme
  /// requires it, poll the home region first (Fig 3 runs at the peer that
  /// holds the copy), then respond.
  void serve_from_copy(net::NodeId self, const net::Packet& request,
                       const cache::CacheEntry& entry, HitClass hit_class);
  void finish_responder_poll(std::uint64_t poll_id);
  void send_response(net::NodeId self, const net::Packet& request,
                     const cache::CacheEntry& entry, HitClass hit_class);
  /// kRequest handling per route mode.
  void handle_request_region_flood(net::NodeId self, const net::Packet& packet);
  void handle_request_network_flood(net::NodeId self,
                                    const net::Packet& packet);
  void handle_request_geographic(net::NodeId self, const net::Packet& packet);

  EngineContext& ctx_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::unordered_map<std::uint64_t, ResponderPoll> responder_polls_;
};

}  // namespace precinct::core
