// Unit tests for the cache store and replacement policies, including the
// paper's GD-LD utility function (Eq. 1) and greedy-dual aging semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cache/cache_store.hpp"
#include "cache/policies.hpp"
#include "support/rng.hpp"

namespace {

using namespace precinct::cache;
using precinct::geo::Key;

CacheEntry entry(Key key, std::size_t size, double access = 1.0,
                 double reg_dst = 0.0) {
  CacheEntry e;
  e.key = key;
  e.size_bytes = size;
  e.access_count = access;
  e.region_distance = reg_dst;
  return e;
}

TEST(GdLd, UtilityMatchesEquation1) {
  const GdLdWeights w{2.0, 3.0, 4096.0};
  const GdLd policy(w);
  const CacheEntry e = entry(1, 1024, 5.0, 1.5);
  EXPECT_DOUBLE_EQ(policy.score(e), 2.0 * 5.0 + 3.0 * 1.5 + 4096.0 / 1024.0);
}

TEST(GdLd, FavorsPopularItems) {
  const GdLd policy;
  EXPECT_GT(policy.score(entry(1, 1000, 10.0, 0.5)),
            policy.score(entry(2, 1000, 2.0, 0.5)));
}

TEST(GdLd, FavorsDistantItems) {
  const GdLd policy;
  EXPECT_GT(policy.score(entry(1, 1000, 1.0, 2.0)),
            policy.score(entry(2, 1000, 1.0, 0.1)));
}

TEST(GdLd, FavorsSmallItems) {
  const GdLd policy;
  EXPECT_GT(policy.score(entry(1, 500, 1.0, 1.0)),
            policy.score(entry(2, 5000, 1.0, 1.0)));
}

TEST(GdSize, IgnoresPopularityAndDistance) {
  const GdSize policy;
  EXPECT_DOUBLE_EQ(policy.score(entry(1, 1000, 100.0, 9.0)),
                   policy.score(entry(2, 1000, 0.0, 0.0)));
  EXPECT_GT(policy.score(entry(1, 500)), policy.score(entry(2, 5000)));
}

TEST(Policies, FactoryByName) {
  EXPECT_EQ(make_policy("gd-ld")->name(), "GD-LD");
  EXPECT_EQ(make_policy("gd-size")->name(), "GD-Size");
  EXPECT_EQ(make_policy("gdsf")->name(), "GDSF");
  EXPECT_EQ(make_policy("lru")->name(), "LRU");
  EXPECT_EQ(make_policy("lfu")->name(), "LFU");
  EXPECT_THROW(make_policy("arc"), std::invalid_argument);
}

TEST(Gdsf, WeighsFrequencyOverSize) {
  const Gdsf policy;
  // Popular-but-large beats unpopular-but-small when frequency dominates.
  EXPECT_GT(policy.score(entry(1, 4000, 20.0)),
            policy.score(entry(2, 1000, 1.0)));
  // At equal frequency, smaller wins (the GD-Size behavior).
  EXPECT_GT(policy.score(entry(1, 1000, 2.0)),
            policy.score(entry(2, 4000, 2.0)));
}

TEST(Policies, InflationFlags) {
  EXPECT_TRUE(make_policy("gd-ld")->inflates());
  EXPECT_TRUE(make_policy("gd-size")->inflates());
  EXPECT_FALSE(make_policy("lru")->inflates());
  EXPECT_FALSE(make_policy("lfu")->inflates());
}

TEST(CacheStore, RejectsNullPolicy) {
  EXPECT_THROW(CacheStore(1000, nullptr), std::invalid_argument);
}

TEST(CacheStore, InsertAndFind) {
  CacheStore store(10000, make_policy("gd-ld"));
  const auto result = store.insert(entry(1, 3000));
  EXPECT_TRUE(result.admitted);
  EXPECT_TRUE(result.evicted.empty());
  EXPECT_EQ(store.used_bytes(), 3000u);
  ASSERT_NE(store.find(1), nullptr);
  EXPECT_EQ(store.find(2), nullptr);
}

TEST(CacheStore, RejectsOversizedItem) {
  CacheStore store(1000, make_policy("gd-ld"));
  EXPECT_FALSE(store.insert(entry(1, 1001)).admitted);
  EXPECT_EQ(store.used_bytes(), 0u);
}

TEST(CacheStore, EvictsLowestUtilityFirst) {
  CacheStore store(10000, make_policy("gd-ld"));
  store.insert(entry(1, 4000, /*access=*/10.0, /*reg_dst=*/1.0));  // valuable
  store.insert(entry(2, 4000, /*access=*/1.0, /*reg_dst=*/0.0));   // victim
  const auto result = store.insert(entry(3, 4000, 5.0, 0.5));
  EXPECT_TRUE(result.admitted);
  ASSERT_EQ(result.evicted.size(), 1u);
  EXPECT_EQ(result.evicted[0], 2u);
  EXPECT_NE(store.find(1), nullptr);
  EXPECT_EQ(store.find(2), nullptr);
}

TEST(CacheStore, EvictsMultipleForLargeInsert) {
  CacheStore store(10000, make_policy("gd-ld"));
  store.insert(entry(1, 3000));
  store.insert(entry(2, 3000));
  store.insert(entry(3, 3000));
  const auto result = store.insert(entry(4, 8000, 100.0, 2.0));
  EXPECT_TRUE(result.admitted);
  EXPECT_GE(result.evicted.size(), 2u);
  EXPECT_LE(store.used_bytes(), 10000u);
}

TEST(CacheStore, GreedyDualInflationAgesResidents) {
  // After an eviction at priority L, new entries start at L + score, so a
  // newly inserted cold item outranks an old cold item (paper Figure 1:
  // U(d) = L + U(d)).
  CacheStore store(8000, make_policy("gd-ld"));
  store.insert(entry(1, 4000, 0.0, 0.0));
  store.insert(entry(2, 4000, 0.0, 0.0));
  // Force an eviction; L rises to the victim's priority.
  store.insert(entry(3, 4000, 0.0, 0.0));
  EXPECT_GT(store.inflation_floor(), 0.0);
  const CacheEntry* survivor = store.find(3);
  ASSERT_NE(survivor, nullptr);
  EXPECT_DOUBLE_EQ(survivor->inflation, store.inflation_floor());
}

TEST(CacheStore, TouchUpdatesUtilityState) {
  CacheStore store(10000, make_policy("gd-ld"));
  store.insert(entry(1, 2000, 1.0, 0.5));
  EXPECT_TRUE(store.touch(1, 42.0, 1.5));
  const CacheEntry* e = store.find(1);
  ASSERT_NE(e, nullptr);
  EXPECT_DOUBLE_EQ(e->access_count, 2.0);
  EXPECT_DOUBLE_EQ(e->last_access_s, 42.0);
  EXPECT_DOUBLE_EQ(e->region_distance, 1.5);
  EXPECT_FALSE(store.touch(99, 0.0, 0.0));
}

TEST(CacheStore, RefreshUpdatesConsistencyState) {
  CacheStore store(10000, make_policy("gd-ld"));
  store.insert(entry(1, 2000));
  store.invalidate(1);
  EXPECT_TRUE(store.find(1)->invalidated);
  EXPECT_TRUE(store.refresh(1, 7, 100.0));
  const CacheEntry* e = store.find(1);
  EXPECT_EQ(e->version, 7u);
  EXPECT_DOUBLE_EQ(e->ttr_expiry_s, 100.0);
  EXPECT_FALSE(e->invalidated);
  EXPECT_FALSE(store.refresh(99, 1, 0.0));
}

TEST(CacheStore, ReinsertRefreshesInPlace) {
  CacheStore store(10000, make_policy("gd-ld"));
  store.insert(entry(1, 2000, 1.0, 0.0));
  store.touch(1, 1.0, 0.0);  // access_count -> 2
  CacheEntry updated = entry(1, 3000, 1.0, 0.0);
  updated.version = 5;
  const auto result = store.insert(updated);
  EXPECT_TRUE(result.admitted);
  const CacheEntry* e = store.find(1);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->version, 5u);
  EXPECT_EQ(e->size_bytes, 3000u);
  EXPECT_DOUBLE_EQ(e->access_count, 2.0);  // preserved across refresh
  EXPECT_EQ(store.used_bytes(), 3000u);
  EXPECT_EQ(store.entry_count(), 1u);
}

TEST(CacheStore, ReinsertThatEvictsItselfIsNotAdmitted) {
  // Growing a resident entry can make it the lowest-priority resident:
  // it is then the victim, and the result must not claim it admitted.
  CacheStore store(10000, make_policy("gd-ld"));
  store.insert(entry(1, 1000, /*access=*/0.0));
  store.insert(entry(2, 1000, /*access=*/100.0));
  const auto result = store.insert(entry(1, 9500, 0.0));
  EXPECT_FALSE(result.admitted);
  EXPECT_EQ(result.evicted, (std::vector<Key>{1}));
  EXPECT_EQ(store.find(1), nullptr);
  ASSERT_NE(store.find(2), nullptr);
  EXPECT_EQ(store.used_bytes(), 1000u);
  EXPECT_EQ(store.entry_count(), 1u);
}

TEST(CacheStore, FindPointsAtTheLiveRow) {
  CacheStore store(10000, make_policy("gd-ld"));
  store.insert(entry(1, 1000));
  store.insert(entry(2, 1000));
  store.insert(entry(3, 1000));
  const CacheEntry* two = store.find(2);
  const CacheEntry* three = store.find(3);
  ASSERT_NE(two, nullptr);
  ASSERT_NE(three, nullptr);
  EXPECT_EQ(two->key, 2u);
  EXPECT_EQ(three->key, 3u);
  // Later mutations show through a pointer taken before them.
  ASSERT_TRUE(store.touch(2, 5.0, 0.75));
  EXPECT_DOUBLE_EQ(two->access_count, 2.0);
  EXPECT_DOUBLE_EQ(two->last_access_s, 5.0);
  EXPECT_DOUBLE_EQ(two->region_distance, 0.75);
  ASSERT_TRUE(store.refresh(3, 9, 50.0));
  EXPECT_EQ(three->version, 9u);
  EXPECT_DOUBLE_EQ(three->ttr_expiry_s, 50.0);
  ASSERT_TRUE(store.invalidate(2));
  EXPECT_TRUE(two->invalidated);
  EXPECT_FALSE(three->invalidated);
}

TEST(CacheStore, EraseFreesSpace) {
  CacheStore store(10000, make_policy("gd-ld"));
  store.insert(entry(1, 2000));
  EXPECT_TRUE(store.erase(1));
  EXPECT_FALSE(store.erase(1));
  EXPECT_EQ(store.used_bytes(), 0u);
}

TEST(CacheStore, LruEvictsOldest) {
  CacheStore store(6000, make_policy("lru"));
  CacheEntry a = entry(1, 3000);
  a.last_access_s = 1.0;
  CacheEntry b = entry(2, 3000);
  b.last_access_s = 2.0;
  store.insert(a);
  store.insert(b);
  const auto result = store.insert([&] {
    CacheEntry c = entry(3, 3000);
    c.last_access_s = 3.0;
    return c;
  }());
  ASSERT_EQ(result.evicted.size(), 1u);
  EXPECT_EQ(result.evicted[0], 1u);
}

TEST(CacheStore, LfuEvictsLeastFrequent) {
  CacheStore store(6000, make_policy("lfu"));
  store.insert(entry(1, 3000, 5.0));
  store.insert(entry(2, 3000, 1.0));
  const auto result = store.insert(entry(3, 3000, 2.0));
  ASSERT_EQ(result.evicted.size(), 1u);
  EXPECT_EQ(result.evicted[0], 2u);
}

TEST(CacheStore, StaticSpaceIsSeparate) {
  CacheStore store(4000, make_policy("gd-ld"));
  store.put_static(entry(1, 3000));
  store.put_static(entry(2, 3000));  // exceeds dynamic capacity: fine
  EXPECT_EQ(store.static_count(), 2u);
  EXPECT_EQ(store.static_bytes(), 6000u);
  EXPECT_EQ(store.used_bytes(), 0u);  // dynamic space untouched
  EXPECT_NE(store.find_static(1), nullptr);
  EXPECT_EQ(store.find(1), nullptr);  // not in dynamic space
}

TEST(CacheStore, PutStaticOverwrites) {
  CacheStore store(4000, make_policy("gd-ld"));
  store.put_static(entry(1, 3000));
  CacheEntry updated = entry(1, 2000);
  updated.version = 9;
  store.put_static(updated);
  EXPECT_EQ(store.static_count(), 1u);
  EXPECT_EQ(store.static_bytes(), 2000u);
  EXPECT_EQ(store.find_static(1)->version, 9u);
}

TEST(CacheStore, TakeAllStaticDrainsCustody) {
  CacheStore store(4000, make_policy("gd-ld"));
  store.put_static(entry(1, 1000));
  store.put_static(entry(2, 1000));
  const auto taken = store.take_all_static();
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_EQ(store.static_count(), 0u);
  EXPECT_EQ(store.static_bytes(), 0u);
}

TEST(CacheStore, EraseStatic) {
  CacheStore store(4000, make_policy("gd-ld"));
  store.put_static(entry(1, 1000));
  EXPECT_TRUE(store.erase_static(1));
  EXPECT_FALSE(store.erase_static(1));
}

TEST(CacheStore, FindStaticMutableAllowsVersionBump) {
  CacheStore store(4000, make_policy("gd-ld"));
  store.put_static(entry(1, 1000));
  CacheEntry* e = store.find_static_mutable(1);
  ASSERT_NE(e, nullptr);
  e->version = 3;
  EXPECT_EQ(store.find_static(1)->version, 3u);
}

TEST(CacheStore, KeysListsDynamicEntries) {
  CacheStore store(10000, make_policy("gd-ld"));
  store.insert(entry(1, 1000));
  store.insert(entry(2, 1000));
  auto keys = store.keys();
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, (std::vector<Key>{1, 2}));
}

// Property-style sweep: under every policy, capacity is never exceeded
// and entry_count matches the live set after random traffic.
class CachePolicyProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(CachePolicyProperty, CapacityInvariantUnderRandomTraffic) {
  CacheStore store(20000, make_policy(GetParam()));
  precinct::support::Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    const Key key = rng.uniform_int(64);
    const auto size = 500 + rng.uniform_int(4000);
    CacheEntry e = entry(key, size, rng.uniform(0, 10), rng.uniform(0, 2));
    e.last_access_s = i;
    store.insert(e);
    EXPECT_LE(store.used_bytes(), 20000u);
    if (i % 7 == 0) store.touch(key, i, 1.0);
    if (i % 13 == 0) store.erase(rng.uniform_int(64));
  }
  // used_bytes equals the sum over resident entries.
  std::size_t total = 0;
  for (const Key k : store.keys()) total += store.find(k)->size_bytes;
  EXPECT_EQ(total, store.used_bytes());
}

// Reference model of the dynamic space: a std::map with brute-force
// victim selection — the argmin of (inflation + score, key), scanned in
// key order — under the same greedy-dual rule (L := the victim's
// priority; a newcomer's inflation is L when the policy inflates).
struct ReferenceCache {
  std::size_t capacity;
  std::unique_ptr<ReplacementPolicy> policy;
  std::map<Key, CacheEntry> rows;
  std::size_t used = 0;
  double floor = 0.0;

  [[nodiscard]] std::optional<std::pair<Key, double>> victim() const {
    std::optional<std::pair<Key, double>> best;
    for (const auto& [key, e] : rows) {
      const double p = e.inflation + policy->score(e);
      if (!best || p < best->second) best = {key, p};
    }
    return best;
  }

  Key evict() {
    const auto [key, p] = *victim();
    floor = p;
    used -= rows.at(key).size_bytes;
    rows.erase(key);
    return key;
  }

  InsertResult insert(CacheEntry e) {
    InsertResult result;
    if (e.size_bytes > capacity) return result;
    if (const auto it = rows.find(e.key); it != rows.end()) {
      e.access_count = it->second.access_count;
      e.inflation = it->second.inflation;
      used = used - it->second.size_bytes + e.size_bytes;
      it->second = e;
      while (used > capacity) result.evicted.push_back(evict());
      result.admitted = rows.contains(e.key);
      return result;
    }
    while (used + e.size_bytes > capacity) result.evicted.push_back(evict());
    if (policy->inflates()) e.inflation = floor;
    used += e.size_bytes;
    rows.emplace(e.key, e);
    result.admitted = true;
    return result;
  }
};

::testing::AssertionResult same_state(const CacheStore& store,
                                      const ReferenceCache& ref) {
  if (store.used_bytes() != ref.used) {
    return ::testing::AssertionFailure()
           << "used_bytes " << store.used_bytes() << " vs " << ref.used;
  }
  if (store.entry_count() != ref.rows.size()) {
    return ::testing::AssertionFailure()
           << "entry_count " << store.entry_count() << " vs "
           << ref.rows.size();
  }
  if (store.inflation_floor() != ref.floor) {
    return ::testing::AssertionFailure()
           << "inflation_floor " << store.inflation_floor() << " vs "
           << ref.floor;
  }
  const auto victim = ref.victim();
  if (store.victim_key() != (victim ? std::optional<Key>(victim->first)
                                    : std::nullopt)) {
    return ::testing::AssertionFailure() << "victim_key differs";
  }
  for (const auto& [key, want] : ref.rows) {
    const CacheEntry* got = store.find(key);
    if (got == nullptr) {
      return ::testing::AssertionFailure() << "key " << key << " missing";
    }
    if (got->key != want.key || got->size_bytes != want.size_bytes ||
        got->version != want.version ||
        got->access_count != want.access_count ||
        got->region_distance != want.region_distance ||
        got->inflation != want.inflation ||
        got->ttr_expiry_s != want.ttr_expiry_s ||
        got->invalidated != want.invalidated ||
        got->fetched_at_s != want.fetched_at_s ||
        got->last_access_s != want.last_access_s) {
      return ::testing::AssertionFailure() << "row of key " << key << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST_P(CachePolicyProperty, MatchesAMapReferenceUnderRandomTraffic) {
  // Seeded differential run: 2x10^4 random operations on a store and on
  // the reference; every result and the whole resident state must agree
  // after each one.  Integral access counts and a few distinct sizes make
  // priority ties common, so the min-key tie-break is exercised too.
  constexpr std::size_t kCapacity = 40000;
  constexpr Key kKeys = 96;
  CacheStore store(kCapacity, make_policy(GetParam()));
  ReferenceCache ref{kCapacity, make_policy(GetParam()), {}, 0, 0.0};
  precinct::support::Rng rng(2024);
  double now = 0.0;
  std::size_t evictions = 0;
  for (int step = 1; step <= 20000; ++step) {
    now += rng.uniform(0.0, 1.0);
    const auto roll = rng.uniform_int(100);
    Key key = rng.uniform_int(kKeys);
    if (roll >= 40 && !ref.rows.empty() && rng.uniform_int(4) != 0) {
      // Mostly mutate resident keys; misses must be reported as misses.
      key = std::next(ref.rows.begin(),
                      static_cast<std::ptrdiff_t>(
                          rng.uniform_int(ref.rows.size())))
                ->first;
    }
    if (roll < 40) {
      CacheEntry e;
      e.key = key;
      if (const auto it = ref.rows.find(key); it != ref.rows.end()) {
        // Re-insert: a refresh in place that never grows the entry.
        e.size_bytes = it->second.size_bytes - rng.uniform_int(512);
      } else if (roll < 2) {
        e.size_bytes = kCapacity + 1;  // rejected outright
      } else if (roll < 6) {
        e.size_bytes = 4096 + rng.uniform_int(kCapacity / 2);
      } else {
        e.size_bytes = 512 * (1 + rng.uniform_int(8));
      }
      e.version = rng.uniform_int(5);
      e.access_count = static_cast<double>(rng.uniform_int(4));
      e.region_distance = rng.uniform(0.0, 2.0);
      e.ttr_expiry_s = now + rng.uniform(0.0, 30.0);
      e.fetched_at_s = e.last_access_s = now;
      const InsertResult got = store.insert(e);
      const InsertResult want = ref.insert(e);
      ASSERT_EQ(got.admitted, want.admitted) << "step " << step;
      ASSERT_EQ(got.evicted, want.evicted) << "step " << step;
      evictions += want.evicted.size();
    } else if (roll < 60) {
      const double reg_dst = rng.uniform(0.0, 2.0);
      const auto it = ref.rows.find(key);
      if (it != ref.rows.end()) {
        it->second.access_count += 1.0;
        it->second.last_access_s = now;
        it->second.region_distance = reg_dst;
      }
      ASSERT_EQ(store.touch(key, now, reg_dst), it != ref.rows.end())
          << "step " << step;
    } else if (roll < 72) {
      const std::uint64_t version = rng.uniform_int(8);
      const double ttr = now + rng.uniform(0.0, 30.0);
      const auto it = ref.rows.find(key);
      if (it != ref.rows.end()) {
        it->second.version = version;
        it->second.ttr_expiry_s = ttr;
        it->second.invalidated = false;
      }
      ASSERT_EQ(store.refresh(key, version, ttr), it != ref.rows.end())
          << "step " << step;
    } else if (roll < 84) {
      const auto it = ref.rows.find(key);
      if (it != ref.rows.end()) it->second.invalidated = true;
      ASSERT_EQ(store.invalidate(key), it != ref.rows.end())
          << "step " << step;
    } else {
      const auto it = ref.rows.find(key);
      const bool resident = it != ref.rows.end();
      if (resident) {
        ref.used -= it->second.size_bytes;
        ref.rows.erase(it);
      }
      ASSERT_EQ(store.erase(key), resident) << "step " << step;
    }
    ASSERT_TRUE(same_state(store, ref)) << "step " << step;
  }
  EXPECT_GT(evictions, 1000u) << "victim selection went untested";
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CachePolicyProperty,
                         ::testing::Values("gd-ld", "gd-size", "gdsf", "lru",
                                           "lfu"));

}  // namespace
