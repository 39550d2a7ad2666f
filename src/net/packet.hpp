// Packet taxonomy shared by routing, caching and consistency layers.
//
// A Packet is a value type: forwarding copies it, mutating only the
// per-hop fields (src, ttl, hops, perimeter state).  Payload data is
// modeled by (key, version, size) — the simulator never moves real bytes.
#pragma once

#include <cstddef>
#include <cstdint>

#include "geo/geo_hash.hpp"
#include "geo/geometry.hpp"
#include "geo/region_table.hpp"

namespace precinct::net {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// Protocol message types (paper §2.2, §4).  Used for per-class message
/// accounting (Fig 6's control-message-overhead metric).
enum class PacketKind : std::uint8_t {
  kRequest,       ///< data lookup (regional flood or routed to home region)
  kResponse,      ///< data returned to the requester
  kUpdatePush,    ///< push-phase update toward home/replica region
  kPoll,          ///< pull-phase validity check toward home region
  kPollReply,     ///< poll answer (fresh TTR and, if stale, new version)
  kInvalidation,  ///< Plain-Push flooded invalidation
  kKeyTransfer,   ///< key custody handoff on inter-region mobility / leave
  kRegionUpdate,  ///< region-table change dissemination (§2.1)
  kPushAck,       ///< custodian's acknowledgement of an update push
  kBeacon,        ///< GPSR position beacon (neighbor discovery)
};

/// Number of PacketKind enumerators: the wire decoder's bound on a kind
/// byte, the fuzzer's per-kind loop and the size of MessageStats's
/// per-kind counters.  Keep in sync when adding kinds;
/// the engine's receive switch needs no count, since -Wswitch flags a
/// kind it does not handle.
inline constexpr std::size_t kPacketKindCount = 10;

[[nodiscard]] const char* to_string(PacketKind kind) noexcept;

/// How a request is being propagated right now.
enum class RouteMode : std::uint8_t {
  kRegionFlood,  ///< scoped flood within dest_region
  kGeographic,   ///< GPSR toward dest_location
  kNetworkFlood, ///< network-wide flood (baselines, Plain-Push)
};

struct Packet {
  std::uint64_t id = 0;       ///< unique; floods deduplicate on it
  PacketKind kind = PacketKind::kRequest;
  RouteMode mode = RouteMode::kGeographic;

  NodeId origin = kNoNode;    ///< node that created the packet
  NodeId src = kNoNode;       ///< sender of the current hop
  geo::Point src_location;    ///< src's position at transmission (stamped
                              ///< by the radio; lets receivers and
                              ///< overhearers piggyback GPSR positions)
  NodeId dest_node = kNoNode; ///< unicast target (kNoNode when routing by
                              ///< location/region only)
  geo::Point origin_location; ///< where the origin was (for the reply path)
  geo::Point dest_location;   ///< geographic destination (region center)
  geo::RegionId dest_region = geo::kInvalidRegion;

  geo::Key key = 0;           ///< data key the message concerns
  std::uint64_t version = 0;  ///< data version carried (responses/updates)
  double ttr_s = 0.0;         ///< TTR carried by responses / poll replies

  std::size_t size_bytes = 0; ///< on-air size (headers + payload)
  int ttl = 64;               ///< hop budget
  int hops = 0;               ///< hops taken so far
  std::uint64_t request_id = 0;  ///< correlates request/response/poll pairs
  double created_at = 0.0;    ///< origin timestamp (latency accounting)

  // GPSR perimeter-mode state (Karp & Kung).
  bool perimeter = false;
  geo::Point perimeter_entry;    ///< location where greedy forwarding failed
  NodeId perimeter_entry_node = kNoNode;  ///< node where perimeter began
  NodeId perimeter_first_hop = kNoNode;   ///< first perimeter edge endpoint

  /// Void-recovery broadcast: set when a geographically routed packet hit
  /// a dead end and was re-broadcast; only receivers strictly closer to
  /// the destination than the stuck node resume forwarding.
  bool recovery = false;

  // Response annotations (set by the serving peer).
  std::uint8_t hit_class = 0;    ///< core::HitClass of the serving copy
  geo::RegionId responder_region = geo::kInvalidRegion;
};

/// Default on-air sizes (bytes).  Requests/control messages are small
/// headers; responses carry the data item, so their size is
/// kHeaderBytes + item size.
inline constexpr std::size_t kHeaderBytes = 64;

}  // namespace precinct::net
