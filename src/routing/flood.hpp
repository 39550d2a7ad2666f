// Flood control: duplicate suppression and scope tests shared by the
// network-wide flooding baseline, the expanding-ring baseline and
// PReCinCt's region-scoped floods.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"

namespace precinct::routing {

/// Per-node flood state: remembers which packet ids each node has already
/// processed so each flood visits a node at most once.
///
/// Stored as one flat open-addressing table keyed by packet id, one record
/// per id: the id, a generation stamp and one bit per simulated node.  A
/// flood's lookups arrive in one burst and mark a few dozen nodes, so they
/// all hit one record in a hot cache line.  A record whose generation
/// differs from the current one counts as empty, which makes clear() an
/// O(1) generation bump (records are never deleted individually, so probe
/// chains stay intact).
class FloodController {
 public:
  /// Simulates nodes 0 .. n_nodes-1: every record carries n_nodes bits.
  /// The table starts small and doubles as ids accumulate over the run.
  explicit FloodController(std::size_t n_nodes);

  /// Shrink the records to `nodes` (a world-sharded domain's owned
  /// nodes, DESIGN.md §13): each gets one bit, every other node becomes
  /// foreign.  Drops every mark and restarts the table at its initial
  /// size.  Throws std::out_of_range for a node beyond the constructor's
  /// n_nodes and std::invalid_argument for a node listed twice.
  void restrict_to(const std::vector<net::NodeId>& nodes);

  /// Record that `node` processed packet `id`.  Returns true the first
  /// time, false on duplicates.  Throws std::out_of_range naming the node
  /// if it is foreign: only simulated nodes receive, request or forward.
  bool mark_seen(net::NodeId node, std::uint64_t id);

  /// True if the node already processed this packet id (always false for
  /// a foreign node).
  [[nodiscard]] bool has_seen(net::NodeId node, std::uint64_t id) const;

  /// Whether a node should rebroadcast a flood packet: not a duplicate
  /// and TTL not exhausted.  Does NOT mark; callers mark on first receipt
  /// whether or not they forward.
  [[nodiscard]] static bool ttl_allows_forward(const net::Packet& packet) {
    return packet.ttl > 1;
  }

  /// Drop all memory (e.g. between measurement phases).  O(1): bumps the
  /// generation, leaving the table's capacity in place.
  void clear();

  /// Total duplicate suppressions observed (diagnostics).
  [[nodiscard]] std::uint64_t duplicates() const noexcept { return dups_; }

  /// Live (current-generation) marks — diagnostics and tests.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Record slots (one per packet id at most).
  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

 private:
  // Record layout, in 64-bit words: [kId] packet id, [kGen] generation
  // (0 never matches a live one), then one bit per simulated node.
  static constexpr std::size_t kId = 0;
  static constexpr std::size_t kGen = 1;
  static constexpr std::size_t kBits = 2;
  static constexpr std::uint32_t kForeign = UINT32_MAX;

  [[nodiscard]] std::uint32_t bit_of(net::NodeId node) const noexcept {
    return node < bit_of_.size() ? bit_of_[node] : kForeign;
  }
  [[nodiscard]] std::uint64_t* record(std::size_t slot) noexcept {
    return table_.data() + slot * stride_;
  }
  [[nodiscard]] const std::uint64_t* record(std::size_t slot) const noexcept {
    return table_.data() + slot * stride_;
  }
  /// The slot holding `id`'s live record, or else the first slot of its
  /// probe chain without one.
  [[nodiscard]] std::size_t probe(std::uint64_t id) const noexcept;
  void reset(std::size_t n_bits);
  void grow();

  std::vector<std::uint32_t> bit_of_;  // node -> bit index or kForeign
  std::vector<std::uint64_t> table_;   // power-of-two slots x stride_ words
  std::size_t stride_ = kBits;         // words per record
  std::size_t mask_ = 0;               // slots - 1
  std::size_t records_ = 0;  // live records (one per id) in this generation
  std::size_t size_ = 0;     // live marks in this generation
  std::uint64_t gen_ = 1;
  std::uint64_t dups_ = 0;
};

}  // namespace precinct::routing
