#include "cache/policies.hpp"

#include <stdexcept>

namespace precinct::cache {

double GdLd::score(const CacheEntry& entry) const {
  const double inv_size =
      entry.size_bytes > 0 ? 1.0 / static_cast<double>(entry.size_bytes) : 0.0;
  return weights_.wr * entry.access_count +
         weights_.wd * entry.region_distance + weights_.ws * inv_size;
}

double GdSize::score(const CacheEntry& entry) const {
  // cost/size with cost = 1; scaled so magnitudes are comparable to GD-LD
  // inflation values (scale cancels in eviction ordering).
  return entry.size_bytes > 0
             ? 4096.0 / static_cast<double>(entry.size_bytes)
             : 0.0;
}

double Gdsf::score(const CacheEntry& entry) const {
  return entry.size_bytes > 0
             ? 4096.0 * entry.access_count /
                   static_cast<double>(entry.size_bytes)
             : 0.0;
}

double Lru::score(const CacheEntry& entry) const {
  return entry.last_access_s;
}

double Lfu::score(const CacheEntry& entry) const {
  return entry.access_count;
}

std::unique_ptr<ReplacementPolicy> make_policy(const std::string& name,
                                               GdLdWeights gdld_weights) {
  if (name == "gd-ld") return std::make_unique<GdLd>(gdld_weights);
  if (name == "gd-size") return std::make_unique<GdSize>();
  if (name == "gdsf") return std::make_unique<Gdsf>();
  if (name == "lru") return std::make_unique<Lru>();
  if (name == "lfu") return std::make_unique<Lfu>();
  throw std::invalid_argument("make_policy: unknown policy '" + name + "'");
}

}  // namespace precinct::cache
