#include "net/message_stats.hpp"

#include <numeric>

namespace precinct::net {

const char* to_string(PacketKind kind) noexcept {
  switch (kind) {
    case PacketKind::kRequest: return "request";
    case PacketKind::kResponse: return "response";
    case PacketKind::kUpdatePush: return "update-push";
    case PacketKind::kPoll: return "poll";
    case PacketKind::kPollReply: return "poll-reply";
    case PacketKind::kInvalidation: return "invalidation";
    case PacketKind::kKeyTransfer: return "key-transfer";
    case PacketKind::kRegionUpdate: return "region-update";
    case PacketKind::kPushAck: return "push-ack";
    case PacketKind::kBeacon: return "beacon";
  }
  return "unknown";
}

void MessageStats::count_send(PacketKind kind, std::size_t bytes) noexcept {
  ++sends_[index(kind)];
  bytes_[index(kind)] += bytes;
}

void MessageStats::count_deliveries(PacketKind kind, std::size_t receivers,
                                    std::size_t wire_bytes) noexcept {
  deliveries_[index(kind)] += receivers;
  wire_received_[index(kind)] += receivers * wire_bytes;
}

void MessageStats::count_channel_drop(PacketKind kind) noexcept {
  ++channel_drops_[index(kind)];
}

void MessageStats::count_wire_sent(PacketKind kind,
                                   std::size_t wire_bytes) noexcept {
  wire_sent_[index(kind)] += wire_bytes;
}

std::uint64_t MessageStats::sends(PacketKind kind) const noexcept {
  return sends_[index(kind)];
}

std::uint64_t MessageStats::deliveries(PacketKind kind) const noexcept {
  return deliveries_[index(kind)];
}

std::uint64_t MessageStats::bytes_sent(PacketKind kind) const noexcept {
  return bytes_[index(kind)];
}

std::uint64_t MessageStats::channel_drops(PacketKind kind) const noexcept {
  return channel_drops_[index(kind)];
}

std::uint64_t MessageStats::total_sends() const noexcept {
  return std::accumulate(sends_.begin(), sends_.end(), std::uint64_t{0});
}

std::uint64_t MessageStats::total_bytes() const noexcept {
  return std::accumulate(bytes_.begin(), bytes_.end(), std::uint64_t{0});
}

std::uint64_t MessageStats::total_channel_drops() const noexcept {
  return std::accumulate(channel_drops_.begin(), channel_drops_.end(),
                         std::uint64_t{0});
}

std::uint64_t MessageStats::wire_bytes_sent(PacketKind kind) const noexcept {
  return wire_sent_[index(kind)];
}

std::uint64_t MessageStats::wire_bytes_received(
    PacketKind kind) const noexcept {
  return wire_received_[index(kind)];
}

std::uint64_t MessageStats::total_wire_bytes_sent() const noexcept {
  return std::accumulate(wire_sent_.begin(), wire_sent_.end(),
                         std::uint64_t{0});
}

std::uint64_t MessageStats::total_wire_bytes_received() const noexcept {
  return std::accumulate(wire_received_.begin(), wire_received_.end(),
                         std::uint64_t{0});
}

std::uint64_t MessageStats::consistency_sends() const noexcept {
  return sends(PacketKind::kUpdatePush) + sends(PacketKind::kPoll) +
         sends(PacketKind::kPollReply) + sends(PacketKind::kInvalidation) +
         sends(PacketKind::kPushAck);
}

}  // namespace precinct::net
