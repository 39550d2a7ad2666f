// Cache replacement policies.
//
// The store keeps, per entry, priority = inflation + policy->score(entry)
// and evicts the minimum.  Greedy-dual policies (GD-LD, GD-Size) set each
// admitted entry's inflation to the priority of the last victim ("L"),
// which ages resident entries relative to fresh arrivals exactly as the
// paper's CacheReplacementPolicy pseudo-code does: U(d) = L + U(d).
#pragma once

#include <memory>
#include <string>

#include "cache/cache_entry.hpp"

namespace precinct::cache {

class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  /// Higher score = more worth keeping.  Must be >= 0 for greedy-dual
  /// aging to behave.
  [[nodiscard]] virtual double score(const CacheEntry& entry) const = 0;

  /// Whether admitted entries inherit the last victim's priority (L).
  [[nodiscard]] virtual bool inflates() const noexcept { return false; }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// GD-LD — Greedy-Dual Least-Distance, the paper's contribution (Eq. 1):
///   U = wr * access_count + wd * region_distance + ws * (1 / size)
struct GdLdWeights {
  double wr = 1.0;    ///< popularity weight
  double wd = 1.0;    ///< region-distance weight (distances normalized by
                      ///< the caller to region units)
  double ws = 4096.0; ///< size weight; ws/size is O(1) for KiB-scale items
};

class GdLd final : public ReplacementPolicy {
 public:
  explicit GdLd(GdLdWeights weights = {}) noexcept : weights_(weights) {}
  [[nodiscard]] double score(const CacheEntry& entry) const override;
  [[nodiscard]] bool inflates() const noexcept override { return true; }
  [[nodiscard]] std::string name() const override { return "GD-LD"; }
  [[nodiscard]] const GdLdWeights& weights() const noexcept { return weights_; }

 private:
  GdLdWeights weights_;
};

/// GD-Size (Cao & Irani): priority = cost / size with unit cost, i.e. it
/// favors small items regardless of popularity or fetch distance — the
/// baseline the paper critiques.
class GdSize final : public ReplacementPolicy {
 public:
  [[nodiscard]] double score(const CacheEntry& entry) const override;
  [[nodiscard]] bool inflates() const noexcept override { return true; }
  [[nodiscard]] std::string name() const override { return "GD-Size"; }
};

/// GDSF — Greedy-Dual-Size-Frequency (Cherkasova): priority =
/// frequency / size with greedy-dual aging.  A stronger baseline than
/// GD-Size that post-dates the paper; included for the ablations.
class Gdsf final : public ReplacementPolicy {
 public:
  [[nodiscard]] double score(const CacheEntry& entry) const override;
  [[nodiscard]] bool inflates() const noexcept override { return true; }
  [[nodiscard]] std::string name() const override { return "GDSF"; }
};

/// Least-recently-used (reference policy, not in the paper's plots).
class Lru final : public ReplacementPolicy {
 public:
  [[nodiscard]] double score(const CacheEntry& entry) const override;
  [[nodiscard]] std::string name() const override { return "LRU"; }
};

/// Least-frequently-used (reference policy).
class Lfu final : public ReplacementPolicy {
 public:
  [[nodiscard]] double score(const CacheEntry& entry) const override;
  [[nodiscard]] std::string name() const override { return "LFU"; }
};

/// Factory by name ("gd-ld", "gd-size", "gdsf", "lru", "lfu"); throws on
/// unknown names.
[[nodiscard]] std::unique_ptr<ReplacementPolicy> make_policy(
    const std::string& name, GdLdWeights gdld_weights = {});

}  // namespace precinct::cache
