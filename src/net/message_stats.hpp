// Per-kind message counters: the paper's "control message overhead" metric
// (Fig 6) is the total number of messages generated to maintain
// consistency, so the substrate counts every transmission by kind.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "net/packet.hpp"

namespace precinct::net {

class MessageStats {
 public:
  void count_send(PacketKind kind, std::size_t bytes) noexcept;
  /// Transport-layer accounting: the *encoded* size of a frame under the
  /// wire codec (transport/wire_format), charged once per transmission
  /// and once per delivery.  `bytes_sent` above counts payload
  /// (size_bytes, the paper's traffic metric); these count what a UDP
  /// fleet would actually put on the wire, so sim and real-transport runs
  /// report traffic volume on the same basis.
  void count_wire_sent(PacketKind kind, std::size_t wire_bytes) noexcept;
  /// `receivers` deliveries of one frame of `wire_bytes` encoded bytes:
  /// a broadcast counts all its surviving receivers in one call.
  void count_deliveries(PacketKind kind, std::size_t receivers,
                        std::size_t wire_bytes) noexcept;
  /// A frame erased by the channel model in flight. Kept separate from
  /// routing losses (TTL expiry, GPSR voids) so lossy-channel sweeps can
  /// attribute missing deliveries to the channel and not the protocol.
  void count_channel_drop(PacketKind kind) noexcept;

  [[nodiscard]] std::uint64_t sends(PacketKind kind) const noexcept;
  [[nodiscard]] std::uint64_t deliveries(PacketKind kind) const noexcept;
  [[nodiscard]] std::uint64_t bytes_sent(PacketKind kind) const noexcept;
  [[nodiscard]] std::uint64_t channel_drops(PacketKind kind) const noexcept;
  [[nodiscard]] std::uint64_t wire_bytes_sent(PacketKind kind) const noexcept;
  [[nodiscard]] std::uint64_t wire_bytes_received(
      PacketKind kind) const noexcept;

  [[nodiscard]] std::uint64_t total_sends() const noexcept;
  [[nodiscard]] std::uint64_t total_bytes() const noexcept;
  [[nodiscard]] std::uint64_t total_channel_drops() const noexcept;
  [[nodiscard]] std::uint64_t total_wire_bytes_sent() const noexcept;
  [[nodiscard]] std::uint64_t total_wire_bytes_received() const noexcept;

  /// Messages attributable to consistency maintenance: pushes, push acks,
  /// polls, poll replies and invalidations (Fig 6's y-axis).
  [[nodiscard]] std::uint64_t consistency_sends() const noexcept;

 private:
  static std::size_t index(PacketKind kind) noexcept {
    return static_cast<std::size_t>(kind);
  }
  std::array<std::uint64_t, kPacketKindCount> sends_{};
  std::array<std::uint64_t, kPacketKindCount> deliveries_{};
  std::array<std::uint64_t, kPacketKindCount> bytes_{};
  std::array<std::uint64_t, kPacketKindCount> channel_drops_{};
  std::array<std::uint64_t, kPacketKindCount> wire_sent_{};
  std::array<std::uint64_t, kPacketKindCount> wire_received_{};
};

}  // namespace precinct::net
