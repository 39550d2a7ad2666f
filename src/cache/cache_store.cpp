#include "cache/cache_store.hpp"

#include <cassert>
#include <stdexcept>

namespace precinct::cache {

CacheStore::CacheStore(std::size_t capacity_bytes,
                       std::unique_ptr<ReplacementPolicy> policy)
    : capacity_(capacity_bytes), policy_(std::move(policy)) {
  if (!policy_) throw std::invalid_argument("CacheStore: null policy");
}

CacheEntry* CacheStore::row(geo::Key key) {
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &rows_[it->second];
}

void CacheStore::remove_slot(std::size_t slot) {
  index_.erase(rows_[slot].key);
  if (slot + 1 != rows_.size()) {
    rows_[slot] = rows_.back();
    index_[rows_[slot].key] = static_cast<std::uint32_t>(slot);
  }
  rows_.pop_back();
}

InsertResult CacheStore::insert(CacheEntry entry) {
  InsertResult result;
  if (entry.size_bytes > capacity_) return result;  // can never fit

  if (CacheEntry* resident = row(entry.key)) {
    // Refresh in place; preserve accumulated access count and inflation.
    entry.access_count = resident->access_count;
    entry.inflation = resident->inflation;
    used_ -= resident->size_bytes;
    used_ += entry.size_bytes;
    *resident = entry;
    // A refresh may have grown the entry past capacity: evict by
    // priority, the refreshed entry included (it alone always fits, so
    // the loop ends once it goes).  Admitted means it is still resident.
    while (used_ > capacity_) result.evicted.push_back(evict_one());
    result.admitted = index_.contains(entry.key);
    return result;
  }

  while (used_ + entry.size_bytes > capacity_) {
    result.evicted.push_back(evict_one());
  }
  // Greedy-dual aging: the newcomer's priority starts at L + score
  // (paper: "U(d) = L + U(d)").
  if (policy_->inflates()) entry.inflation = floor_;
  used_ += entry.size_bytes;
  index_.emplace(entry.key, static_cast<std::uint32_t>(rows_.size()));
  rows_.push_back(entry);
  result.admitted = true;
  return result;
}

std::size_t CacheStore::select_victim(double& priority_out) const {
  assert(!rows_.empty());
  // (priority, key) is a strict total order, so the argmin does not
  // depend on row order and swap-remove never changes the victim.
  std::size_t best = 0;
  double best_priority = priority(rows_[0]);
  for (std::size_t i = 1; i < rows_.size(); ++i) {
    const double p = priority(rows_[i]);
    if (p < best_priority ||
        (p == best_priority && rows_[i].key < rows_[best].key)) {
      best_priority = p;
      best = i;
    }
  }
  priority_out = best_priority;
  return best;
}

geo::Key CacheStore::evict_one() {
  double victim_priority = 0.0;
  const std::size_t victim = select_victim(victim_priority);
  floor_ = victim_priority;  // L := priority of the evicted entry
  const geo::Key key = rows_[victim].key;
  used_ -= rows_[victim].size_bytes;
  remove_slot(victim);
  return key;
}

std::optional<geo::Key> CacheStore::victim_key() const {
  if (rows_.empty()) return std::nullopt;
  double unused = 0.0;
  return rows_[select_victim(unused)].key;
}

const CacheEntry* CacheStore::find(geo::Key key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &rows_[it->second];
}

bool CacheStore::touch(geo::Key key, double now_s, double region_distance) {
  CacheEntry* e = row(key);
  if (e == nullptr) return false;
  e->access_count += 1.0;
  e->last_access_s = now_s;
  e->region_distance = region_distance;
  return true;
}

bool CacheStore::refresh(geo::Key key, std::uint64_t version,
                         double ttr_expiry_s) {
  CacheEntry* e = row(key);
  if (e == nullptr) return false;
  e->version = version;
  e->ttr_expiry_s = ttr_expiry_s;
  e->invalidated = false;
  return true;
}

bool CacheStore::invalidate(geo::Key key) {
  CacheEntry* e = row(key);
  if (e == nullptr) return false;
  e->invalidated = true;
  return true;
}

bool CacheStore::erase(geo::Key key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return false;
  used_ -= rows_[it->second].size_bytes;
  remove_slot(it->second);
  return true;
}

std::vector<geo::Key> CacheStore::keys() const {
  std::vector<geo::Key> out;
  out.reserve(rows_.size());
  for (const CacheEntry& e : rows_) out.push_back(e.key);
  return out;
}

void CacheStore::put_static(CacheEntry entry) {
  const auto [it, inserted] = static_entries_.emplace(entry.key, entry);
  if (!inserted) {
    static_bytes_ -= it->second.size_bytes;
    it->second = entry;
  }
  static_bytes_ += entry.size_bytes;
}

const CacheEntry* CacheStore::find_static(geo::Key key) const {
  const auto it = static_entries_.find(key);
  return it == static_entries_.end() ? nullptr : &it->second;
}

CacheEntry* CacheStore::find_static_mutable(geo::Key key) {
  const auto it = static_entries_.find(key);
  return it == static_entries_.end() ? nullptr : &it->second;
}

bool CacheStore::erase_static(geo::Key key) {
  const auto it = static_entries_.find(key);
  if (it == static_entries_.end()) return false;
  static_bytes_ -= it->second.size_bytes;
  static_entries_.erase(it);
  return true;
}

std::vector<CacheEntry> CacheStore::take_all_static() {
  std::vector<CacheEntry> out;
  out.reserve(static_entries_.size());
  for (auto& [key, entry] : static_entries_) out.push_back(entry);
  static_entries_.clear();
  static_bytes_ = 0;
  return out;
}

}  // namespace precinct::cache
