// Per-peer cache with the paper's static/dynamic split (§3):
//
//  * static space — values of keys whose home region is the region the
//    peer currently resides in (custody copies); never evicted by the
//    replacement policy, released only when custody is handed off.
//  * dynamic space — opportunistically cached items, managed by a
//    greedy replacement policy under a byte capacity.
//
// The dynamic space is one dense vector of CacheEntry rows plus a
// key->slot index, kept dense by swap-remove.  Victim selection is the
// argmin of priority(row) over the rows — at most a few dozen on every
// measured workload (DESIGN.md §12) — and allocates nothing.  find()
// returns the live row.  Static space stays a map — it is small, never
// scanned for eviction, and find_static_mutable hands out long-lived
// pointers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/cache_entry.hpp"
#include "cache/policies.hpp"

namespace precinct::cache {

/// Result of an insert: whether the item is resident when insert returns
/// and which keys were evicted to make room.
struct InsertResult {
  bool admitted = false;
  std::vector<geo::Key> evicted;
};

class CacheStore {
 public:
  /// `capacity_bytes` bounds the dynamic space.  The policy decides
  /// eviction order; it must outlive nothing (owned here).
  CacheStore(std::size_t capacity_bytes,
             std::unique_ptr<ReplacementPolicy> policy);

  // -- dynamic space --------------------------------------------------------

  /// Admit `entry` into dynamic space, evicting minimum-priority entries
  /// until it fits.  An item larger than the whole capacity is rejected.
  /// Re-inserting an existing key refreshes its contents in place; if the
  /// grown entry is then the lowest-priority resident it is evicted
  /// itself, and the result reports it evicted and not admitted.
  InsertResult insert(CacheEntry entry);

  /// Lookup in dynamic space.  Does not touch utility state.  The
  /// returned pointer is the live row: it sees later touch/refresh/
  /// invalidate and stays valid until the next insert() or erase() on
  /// this store, either of which may move or drop rows.  No protocol
  /// path holds one across an insert or erase on the same store.
  [[nodiscard]] const CacheEntry* find(geo::Key key) const;

  /// Record a hit: bumps access count, refreshes recency, updates the
  /// region-distance attribute (latest request's distance), re-scores.
  /// Returns false if the key is not cached.
  bool touch(geo::Key key, double now_s, double region_distance);

  /// Update consistency state on a cached copy (new version / TTR).
  bool refresh(geo::Key key, std::uint64_t version, double ttr_expiry_s);

  /// Mark a cached copy invalid (pushed invalidation); keeps it resident
  /// so the next request triggers revalidation instead of a silent miss.
  bool invalidate(geo::Key key);

  bool erase(geo::Key key);

  [[nodiscard]] std::size_t used_bytes() const noexcept { return used_; }
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return capacity_;
  }
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return rows_.size();
  }
  [[nodiscard]] const ReplacementPolicy& policy() const noexcept {
    return *policy_;
  }
  /// Priority the next eviction round would use for `entry`.
  [[nodiscard]] double priority(const CacheEntry& entry) const {
    return entry.inflation + policy_->score(entry);
  }
  /// Current greedy-dual aging value L (priority of the last victim).
  [[nodiscard]] double inflation_floor() const noexcept { return floor_; }
  /// Keys currently resident in dynamic space (unspecified order).
  [[nodiscard]] std::vector<geo::Key> keys() const;

  /// The key the next eviction round would choose (min priority,
  /// tie-break min key), without evicting it; nullopt when empty.
  /// Allocation-free — the seam the allocation-count tests probe.
  [[nodiscard]] std::optional<geo::Key> victim_key() const;

  /// Observe-only iteration over the dynamic space (unspecified order,
  /// no allocation) — the invariant checker's audit seam.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const CacheEntry& e : rows_) fn(e);
  }

  // -- static space (home-region custody) -----------------------------------

  /// Store a custody copy.  Static space is not capacity-managed (the
  /// paper's home-region guarantees depend on custody never being
  /// evicted); size is tracked for diagnostics.
  void put_static(CacheEntry entry);
  [[nodiscard]] const CacheEntry* find_static(geo::Key key) const;
  [[nodiscard]] CacheEntry* find_static_mutable(geo::Key key);
  bool erase_static(geo::Key key);
  /// Remove and return all custody entries (inter-region handoff).
  [[nodiscard]] std::vector<CacheEntry> take_all_static();
  [[nodiscard]] std::size_t static_count() const noexcept {
    return static_entries_.size();
  }
  [[nodiscard]] std::size_t static_bytes() const noexcept {
    return static_bytes_;
  }

  /// Observe-only iteration over the static (custody) space.
  template <typename Fn>
  void for_each_static(Fn&& fn) const {
    for (const auto& [key, entry] : static_entries_) fn(entry);
  }

 private:
  /// The live row for `key`, or nullptr.
  [[nodiscard]] CacheEntry* row(geo::Key key);
  /// Swap-remove row `slot`, fixing the moved row's index.
  void remove_slot(std::size_t slot);
  /// Argmin of (priority, key) over all rows.  Pre: non-empty.
  [[nodiscard]] std::size_t select_victim(double& priority_out) const;
  /// Evict the minimum-priority entry; returns its key.  Pre: non-empty.
  geo::Key evict_one();

  std::size_t capacity_;
  std::unique_ptr<ReplacementPolicy> policy_;

  // Dynamic space: dense rows + key->slot index.
  std::unordered_map<geo::Key, std::uint32_t> index_;
  std::vector<CacheEntry> rows_;

  std::unordered_map<geo::Key, CacheEntry> static_entries_;
  std::size_t used_ = 0;
  std::size_t static_bytes_ = 0;
  double floor_ = 0.0;  // greedy-dual L
};

}  // namespace precinct::cache
