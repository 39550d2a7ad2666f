// Run metrics: everything the paper's figures plot, collected over the
// measurement window (requests issued during warm-up are excluded).
#pragma once

#include <cstdint>

#include <array>
#include <string>
#include <vector>

#include "support/stats.hpp"

namespace precinct::core {

/// Where a request was ultimately served from.
enum class HitClass : std::uint8_t {
  kOwnCache,      ///< requester's own static or dynamic space
  kRegionalCache, ///< another peer in the requester's region (local hit)
  kEnRoute,       ///< a peer on the path to the home region (§3.1)
  kHomeRegion,    ///< the key's home region
  kReplicaRegion, ///< fault-tolerance fallback (§2.4)
  kFailed,        ///< no response (timeouts / unreachable)
};

/// Geographic-routing diagnostics: packets abandoned by the forwarding
/// layer.  Kept as a first-class struct so the counters travel together
/// (lifetime totals live on the EngineContext; Metrics carries the
/// measurement-window delta).
struct RoutingStats {
  std::uint64_t drops_void = 0;  ///< dead ends even in perimeter mode
                                 ///< (void recovery broadcast fired)
  std::uint64_t drops_ttl = 0;   ///< hop budget exhausted in flight
};

struct Metrics {
  // -- request accounting ----------------------------------------------------
  std::uint64_t requests_issued = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t requests_failed = 0;
  std::uint64_t own_cache_hits = 0;
  std::uint64_t regional_hits = 0;
  std::uint64_t en_route_hits = 0;
  std::uint64_t home_region_hits = 0;
  std::uint64_t replica_hits = 0;

  support::RunningStats latency_s;       ///< completed requests only
  support::QuantileSampler latency_q;
  /// Latency split by where the request was served from (indexed by
  /// HitClass; kFailed unused).
  std::array<support::RunningStats, 6> latency_by_class;

  // -- byte hit ratio (Fig 5): bytes served from the cumulative regional
  //    cache over total bytes requested --------------------------------------
  std::uint64_t bytes_requested = 0;
  std::uint64_t bytes_hit = 0;

  // -- consistency (Fig 6/7) ---------------------------------------------------
  std::uint64_t updates_initiated = 0;
  std::uint64_t cache_served_valid = 0;  ///< hits served as valid
  std::uint64_t false_hits = 0;          ///< of those, actually stale
  std::uint64_t polls_sent = 0;
  std::uint64_t consistency_messages = 0;  ///< push/poll/reply/invalidation sends

  // -- energy (Fig 9) -----------------------------------------------------------
  double energy_total_mj = 0.0;
  double energy_broadcast_mj = 0.0;  ///< send+receive of broadcast frames
  double energy_p2p_mj = 0.0;        ///< send/receive/overhear of unicast
  double energy_channel_discard_mj = 0.0;  ///< frames the channel erased

  // -- timeline (optional; see PrecinctConfig::sample_interval_s) ------------
  /// Periodic snapshot of cumulative behaviour during the measurement
  /// window, for convergence inspection.
  struct Sample {
    double t_s = 0.0;
    std::uint64_t requests_completed = 0;
    double hit_ratio = 0.0;       ///< own+regional hits / issued, so far
    double avg_latency_s = 0.0;   ///< cumulative mean
    double energy_mj = 0.0;       ///< cumulative network energy
  };
  std::vector<Sample> timeline;

  // -- substrate counters ---------------------------------------------------------
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  /// Transport-layer traffic: the encoded size of every frame under the
  /// wire codec (transport/wire_format), summed over transmissions /
  /// deliveries in the window.  Deliberately NOT in fingerprint(): the
  /// pack goldens' sections predate the codec and must stay byte-identical
  /// (the world fingerprint's domain sections cover them).
  std::uint64_t wire_bytes_sent = 0;
  std::uint64_t wire_bytes_received = 0;
  std::uint64_t frames_lost = 0;
  /// Frames erased by the channel model (fault injection), disjoint from
  /// frames_lost; the per-cause split is indexed by channel::DropCause.
  std::uint64_t frames_dropped_by_channel = 0;
  std::array<std::uint64_t, 4> channel_drops_by_cause{};
  /// Remote-lookup frames re-sent after an unanswered timeout, plus
  /// re-pushed consistency updates (retry/backoff hardening).
  std::uint64_t retransmissions = 0;
  /// Responses that arrived after the request already completed (a retry
  /// raced the original answer) and were dropped instead of double-counted.
  std::uint64_t duplicate_responses_suppressed = 0;
  std::uint64_t custody_handoffs = 0;
  std::uint64_t events_executed = 0;
  RoutingStats routing;  ///< geographic drops during the window

  // -- derived -----------------------------------------------------------------
  [[nodiscard]] double avg_latency_s() const noexcept {
    return latency_s.mean();
  }
  [[nodiscard]] double byte_hit_ratio() const noexcept {
    return bytes_requested
               ? static_cast<double>(bytes_hit) /
                     static_cast<double>(bytes_requested)
               : 0.0;
  }
  [[nodiscard]] double hit_ratio() const noexcept {
    const auto hits = own_cache_hits + regional_hits;
    return requests_issued ? static_cast<double>(hits) /
                                 static_cast<double>(requests_issued)
                           : 0.0;
  }
  [[nodiscard]] double false_hit_ratio() const noexcept {
    return cache_served_valid ? static_cast<double>(false_hits) /
                                    static_cast<double>(cache_served_valid)
                              : 0.0;
  }
  [[nodiscard]] double success_ratio() const noexcept {
    return requests_issued ? static_cast<double>(requests_completed) /
                                 static_cast<double>(requests_issued)
                           : 0.0;
  }
  [[nodiscard]] double energy_per_request_mj() const noexcept {
    return requests_completed
               ? energy_total_mj / static_cast<double>(requests_completed)
               : 0.0;
  }

  void record_hit(HitClass hit_class) noexcept;
};

/// Canonical `key=value` rendering of every deterministic Metrics field,
/// one per line, doubles as `%a` hex-floats so equality is exact.  Two
/// runs are behaviour-identical iff their fingerprints match
/// byte-for-byte; the scenario-pack goldens and the scenario fuzzer's
/// metamorphic properties both compare through this.
[[nodiscard]] std::string fingerprint(const Metrics& m);

}  // namespace precinct::core
