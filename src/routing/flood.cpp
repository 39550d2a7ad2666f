#include "routing/flood.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

namespace precinct::routing {

namespace {

// Record slots of a fresh table; it doubles from here as ids accumulate.
constexpr std::size_t kInitialSlots = 64;

[[nodiscard]] std::uint64_t mix(std::uint64_t id) noexcept {
  // splitmix64: packet ids are sequential, so the raw bits must be
  // scattered before masking.
  std::uint64_t x = id + 0x9e3779b97f4a7c15ULL;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

[[noreturn]] void throw_foreign(net::NodeId node) {
  throw std::out_of_range("FloodController: node " + std::to_string(node) +
                          " is not simulated here");
}

}  // namespace

FloodController::FloodController(std::size_t n_nodes) : bit_of_(n_nodes) {
  std::iota(bit_of_.begin(), bit_of_.end(), std::uint32_t{0});
  reset(n_nodes);
}

void FloodController::restrict_to(const std::vector<net::NodeId>& nodes) {
  std::vector<std::uint32_t> map(bit_of_.size(), kForeign);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    std::uint32_t& bit = map.at(nodes[i]);
    if (bit != kForeign) {
      throw std::invalid_argument("FloodController: node " +
                                  std::to_string(nodes[i]) + " listed twice");
    }
    bit = static_cast<std::uint32_t>(i);
  }
  bit_of_ = std::move(map);
  reset(nodes.size());
}

void FloodController::reset(std::size_t n_bits) {
  stride_ = kBits + (n_bits + 63) / 64;
  table_ = std::vector<std::uint64_t>(kInitialSlots * stride_, 0);
  mask_ = kInitialSlots - 1;
  records_ = 0;
  size_ = 0;
  gen_ = 1;
  dups_ = 0;
}

std::size_t FloodController::probe(std::uint64_t id) const noexcept {
  std::size_t slot = static_cast<std::size_t>(mix(id)) & mask_;
  while (true) {
    const std::uint64_t* rec = record(slot);
    if (rec[kGen] != gen_ || rec[kId] == id) return slot;
    slot = (slot + 1) & mask_;
  }
}

bool FloodController::mark_seen(net::NodeId node, std::uint64_t id) {
  const std::uint32_t bit = bit_of(node);
  if (bit == kForeign) throw_foreign(node);
  std::uint64_t* rec = record(probe(id));
  if (rec[kGen] != gen_) {  // the id's first mark: claim its record
    // Keep the load factor under 3/4.
    if ((records_ + 1) * 4 > capacity() * 3) {
      grow();
      rec = record(probe(id));
    }
    rec[kId] = id;
    rec[kGen] = gen_;
    std::fill(rec + kBits, rec + stride_, 0);
    ++records_;
  }
  std::uint64_t& word = rec[kBits + bit / 64];
  const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
  if ((word & mask) != 0) {
    ++dups_;
    return false;
  }
  word |= mask;
  ++size_;
  return true;
}

bool FloodController::has_seen(net::NodeId node, std::uint64_t id) const {
  const std::uint32_t bit = bit_of(node);
  if (bit == kForeign) return false;
  const std::uint64_t* rec = record(probe(id));
  return rec[kGen] == gen_ && ((rec[kBits + bit / 64] >> (bit % 64)) & 1) != 0;
}

void FloodController::grow() {
  const std::vector<std::uint64_t> old = std::move(table_);
  const std::size_t old_slots = capacity();
  table_ = std::vector<std::uint64_t>(old.size() * 2, 0);
  mask_ = old_slots * 2 - 1;
  for (std::size_t slot = 0; slot < old_slots; ++slot) {
    const std::uint64_t* rec = old.data() + slot * stride_;
    if (rec[kGen] != gen_) continue;  // stale generations are dropped
    std::copy(rec, rec + stride_, record(probe(rec[kId])));
  }
}

void FloodController::clear() {
  // 64-bit generations never wrap back to a stamp still in the table.
  ++gen_;
  records_ = 0;
  size_ = 0;
  dups_ = 0;
}

}  // namespace precinct::routing
