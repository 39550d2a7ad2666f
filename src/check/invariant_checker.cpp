#include "check/invariant_checker.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/consistency_scheme.hpp"
#include "core/retrieval_scheme.hpp"

namespace precinct::check {
namespace {

constexpr const char* kCategoryNames[kCategoryCount] = {
    "net", "cache", "custody", "pending", "consistency", "energy"};

/// Relative slack for floating-point monotonicity/bound checks: the
/// audited quantities are sums of non-negative terms, so any violation
/// beyond rounding noise is a real bug.
constexpr double kRelEps = 1e-9;

[[nodiscard]] bool bounded_above(double value, double bound) noexcept {
  return value <= bound + std::abs(bound) * kRelEps + 1e-12;
}

}  // namespace

const char* category_name(Category c) noexcept {
  return kCategoryNames[static_cast<std::size_t>(c)];
}

CategoryMask parse_categories(const std::string& spec) {
  if (spec.empty()) return kNoCategories;
  CategoryMask mask = kNoCategories;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string token = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (token == "all") {
      mask |= kAllCategories;
      continue;
    }
    bool known = false;
    for (std::size_t i = 0; i < kCategoryCount; ++i) {
      if (token == kCategoryNames[i]) {
        mask |= mask_of(static_cast<Category>(i));
        known = true;
        break;
      }
    }
    if (!known) {
      throw std::invalid_argument(
          "check: unknown category '" + token +
          "' (valid: all, net, cache, custody, pending, consistency, "
          "energy)");
    }
  }
  return mask;
}

InvariantChecker::InvariantChecker(const core::EngineContext& ctx,
                                   CategoryMask mask, std::uint64_t stride)
    : ctx_(ctx), mask_(mask), stride_(stride > 0 ? stride : 1) {}

void InvariantChecker::on_event() {
  if (++events_ % stride_ != 0) return;
  audit_slice();
}

void InvariantChecker::audit() {
  if (has(mask_, Category::kNet)) audit_net();
  if (has(mask_, Category::kCache)) {
    for (net::NodeId node = 0; node < ctx_.peers.size(); ++node) {
      audit_cache_node(node);
    }
  }
  if (has(mask_, Category::kCustody)) audit_custody();
  if (has(mask_, Category::kPending)) audit_pending();
  if (has(mask_, Category::kConsistency)) audit_consistency();
  if (has(mask_, Category::kEnergy)) audit_energy();
  ++audits_;
}

// The per-entry scans are the only audits whose cost grows with cached
// state, so they rotate: a quarter of the peers' caches and one region's
// custody set per boundary.  Everything else is cheap enough to run each
// time.  Detection latency for a rotated invariant is therefore at most
// max(4, region count) boundaries; finalize()'s full audit closes the
// remaining gap at end of run.
void InvariantChecker::audit_slice() {
  if (has(mask_, Category::kNet)) audit_net();
  if (has(mask_, Category::kCache)) {
    const std::size_t n = ctx_.peers.size();
    const std::size_t chunk = (n + 3) / 4;
    for (std::size_t i = 0; i < chunk; ++i) {
      audit_cache_node(static_cast<net::NodeId>((cache_cursor_ + i) % n));
    }
    if (n > 0) cache_cursor_ = (cache_cursor_ + chunk) % n;
  }
  if (has(mask_, Category::kCustody) && ctx_.regions.size() > 0) {
    audit_custody_region(
        static_cast<geo::RegionId>(custody_cursor_ % ctx_.regions.size()));
    custody_cursor_ = (custody_cursor_ + 1) % ctx_.regions.size();
  }
  if (has(mask_, Category::kPending)) audit_pending();
  if (has(mask_, Category::kConsistency)) audit_consistency();
  if (has(mask_, Category::kEnergy)) audit_energy();
  ++audits_;
}

void InvariantChecker::fail(Category category, net::NodeId node,
                            std::string detail) const {
  throw InvariantViolation(category, ctx_.sim.events_executed(), node,
                           std::move(detail));
}

// Packet-pool refcount conservation: frames are referenced only by queued
// delivery events, so a drained simulator must have recycled every frame
// (the PR-2 pooled-buffer reuse bug class).  Radio counters only grow.
void InvariantChecker::audit_net() {
  const net::PacketBufPool& pool = ctx_.net.frame_pool();
  if (pool.in_use() > pool.capacity()) {
    fail(Category::kNet, net::kNoNode,
         "frame pool in_use " + std::to_string(pool.in_use()) +
             " exceeds capacity " + std::to_string(pool.capacity()));
  }
  if (ctx_.sim.pending() == 0 && pool.in_use() != 0) {
    fail(Category::kNet, net::kNoNode,
         "event queue drained but " + std::to_string(pool.in_use()) +
             " pooled frames still referenced (leak)");
  }
  if (ctx_.net.alive_count() > ctx_.net.node_count()) {
    fail(Category::kNet, net::kNoNode,
         "alive_count " + std::to_string(ctx_.net.alive_count()) +
             " exceeds node_count " + std::to_string(ctx_.net.node_count()));
  }
  const net::MessageStats& stats = ctx_.net.stats();
  if (stats.total_sends() < last_total_sends_ ||
      stats.total_bytes() < last_total_bytes_) {
    fail(Category::kNet, net::kNoNode, "message counters moved backwards");
  }
  last_total_sends_ = stats.total_sends();
  last_total_bytes_ = stats.total_bytes();
}

// Cache byte accounting (§3): dynamic occupancy never exceeds capacity,
// tracked byte totals equal the sum over resident entries, and every
// entry matches its catalog item (known key, catalog size, version no
// newer than the authoritative one).
void InvariantChecker::audit_cache_node(net::NodeId node) {
  const cache::CacheStore& cache = ctx_.peers[node].cache;
  if (cache.used_bytes() > cache.capacity_bytes()) {
    fail(Category::kCache, node,
         "dynamic space " + std::to_string(cache.used_bytes()) +
             " bytes exceeds capacity " +
             std::to_string(cache.capacity_bytes()));
  }
  std::size_t dynamic_sum = 0;
  // Remember the first offending key and reason; it is reported after
  // both byte sums, once the dynamic and static sweeps are done.
  bool has_bad = false;
  geo::Key bad_key = 0;
  const char* why = nullptr;
  const auto check_entry = [&](const cache::CacheEntry& e) {
    if (has_bad) return;
    const workload::DataItem* item = ctx_.catalog.find(e.key);
    if (item == nullptr) {
      has_bad = true;
      bad_key = e.key;
      why = "caches a key absent from the catalog";
    } else if (e.size_bytes != item->size_bytes) {
      has_bad = true;
      bad_key = e.key;
      why = "cached size disagrees with the catalog";
    } else if (e.version > item->version) {
      has_bad = true;
      bad_key = e.key;
      why = "cached version is newer than the authoritative one";
    }
  };
  cache.for_each([&](const cache::CacheEntry& e) {
    dynamic_sum += e.size_bytes;
    if (e.size_bytes > cache.capacity_bytes() && !has_bad) {
      has_bad = true;
      bad_key = e.key;
      why = "admitted an entry larger than the whole capacity";
    }
    check_entry(e);
  });
  if (dynamic_sum != cache.used_bytes()) {
    fail(Category::kCache, node,
         "dynamic entries sum to " + std::to_string(dynamic_sum) +
             " bytes but used_bytes reports " +
             std::to_string(cache.used_bytes()));
  }
  std::size_t static_sum = 0;
  cache.for_each_static([&](const cache::CacheEntry& e) {
    static_sum += e.size_bytes;
    check_entry(e);
  });
  if (static_sum != cache.static_bytes()) {
    fail(Category::kCache, node,
         "static entries sum to " + std::to_string(static_sum) +
             " bytes but static_bytes reports " +
             std::to_string(cache.static_bytes()));
  }
  if (has_bad) {
    fail(Category::kCache, node,
         std::string(why) + " (key " + std::to_string(bad_key) + ")");
  }
}

// Custody uniqueness (§2.3, §2.4): at most one live peer per residing
// region holds a given key in static space.  Handoffs, merges, crashes
// and void-recovery rebroadcasts must never leave two custodians of the
// same key in one region — a duplicate would fork the "home copy" and
// make update pushes nondeterministic about which copy they refresh.
void InvariantChecker::audit_custody() {
  holders_.clear();
  for (net::NodeId node = 0; node < ctx_.peers.size(); ++node) {
    if (!ctx_.net.is_alive(node)) continue;
    const core::PeerState& p = ctx_.peers[node];
    p.cache.for_each_static([&](const cache::CacheEntry& e) {
      holders_.push_back(CustodyHolder{e.key, p.region, node});
    });
  }
  check_holder_duplicates();
}

// Duplicates can only pair nodes residing in the same region, so the
// rotating slice audits one region's holders at a time without losing
// any violation class.
void InvariantChecker::audit_custody_region(geo::RegionId region) {
  holders_.clear();
  for (net::NodeId node = 0; node < ctx_.peers.size(); ++node) {
    if (!ctx_.net.is_alive(node)) continue;
    const core::PeerState& p = ctx_.peers[node];
    if (p.region != region) continue;
    p.cache.for_each_static([&](const cache::CacheEntry& e) {
      holders_.push_back(CustodyHolder{e.key, p.region, node});
    });
  }
  check_holder_duplicates();
}

void InvariantChecker::check_holder_duplicates() {
  std::sort(holders_.begin(), holders_.end(),
            [](const CustodyHolder& a, const CustodyHolder& b) {
              if (a.key != b.key) return a.key < b.key;
              if (a.region != b.region) return a.region < b.region;
              return a.node < b.node;
            });
  for (std::size_t i = 1; i < holders_.size(); ++i) {
    const CustodyHolder& a = holders_[i - 1];
    const CustodyHolder& b = holders_[i];
    if (a.key == b.key && a.region == b.region) {
      fail(Category::kCustody, b.node,
           "key " + std::to_string(b.key) + " has duplicate custodians " +
               std::to_string(a.node) + " and " + std::to_string(b.node) +
               " in region " + std::to_string(b.region));
    }
  }
}

// Request lifecycle: every measured lookup is issued exactly once and
// terminates in exactly one of completed/failed (pending ones are still
// in flight), the hit classes partition the completions, and no request
// exceeds its retry budget.
void InvariantChecker::audit_pending() {
  const double now = ctx_.sim.now();
  const int budget = ctx_.config.request_retries;
  ctx_.retrieval->visit_pending([&](const core::RetrievalScheme::PendingView&
                                        p) {
    if (p.attempts < 0 || p.attempts > budget) {
      fail(Category::kPending, p.requester,
           "request for key " + std::to_string(p.key) + " used " +
               std::to_string(p.attempts) + " retries (budget " +
               std::to_string(budget) + ")");
    }
    if (p.created_at > now + 1e-9) {
      fail(Category::kPending, p.requester,
           "pending request created in the future (created_at " +
               std::to_string(p.created_at) + " > now " +
               std::to_string(now) + ")");
    }
    if (p.requester >= ctx_.peers.size()) {
      fail(Category::kPending, p.requester, "pending request at unknown peer");
    }
  });
  const core::Metrics& m = ctx_.metrics;
  const std::uint64_t accounted =
      m.requests_completed + m.requests_failed + ctx_.retrieval->measured_pending();
  if (m.requests_issued != accounted) {
    fail(Category::kPending, net::kNoNode,
         "lifecycle leak: issued " + std::to_string(m.requests_issued) +
             " != completed " + std::to_string(m.requests_completed) +
             " + failed " + std::to_string(m.requests_failed) +
             " + in-flight " +
             std::to_string(ctx_.retrieval->measured_pending()));
  }
  const std::uint64_t hits = m.own_cache_hits + m.regional_hits +
                             m.en_route_hits + m.home_region_hits +
                             m.replica_hits;
  if (hits != m.requests_completed) {
    fail(Category::kPending, net::kNoNode,
         "hit classes sum to " + std::to_string(hits) + " but " +
             std::to_string(m.requests_completed) + " requests completed");
  }
  if (m.latency_s.count() != m.requests_completed) {
    fail(Category::kPending, net::kNoNode,
         "latency samples " + std::to_string(m.latency_s.count()) +
             " != completed requests " +
             std::to_string(m.requests_completed));
  }
  if (m.bytes_hit > m.bytes_requested) {
    fail(Category::kPending, net::kNoNode,
         "bytes_hit " + std::to_string(m.bytes_hit) +
             " exceeds bytes_requested " + std::to_string(m.bytes_requested));
  }
}

// Consistency (§4): TTR estimates stay positive and respect the Eq. 2
// EWMA bound (a convex combination of the initial TTR and inter-update
// gaps, none of which can exceed the current time), and un-acked pushes
// never overdraw their retry budget.
void InvariantChecker::audit_consistency() {
  const double now = ctx_.sim.now();
  const double ttr_ceiling = std::max(ctx_.config.ttr_initial_s, now);
  ctx_.consistency->visit_ttr([&](const core::ConsistencyScheme::TtrView& t) {
    if (!std::isfinite(t.ttr_s) || t.ttr_s < 0.0) {
      fail(Category::kConsistency, net::kNoNode,
           "TTR for key " + std::to_string(t.key) + " is " +
               std::to_string(t.ttr_s));
    }
    if (ctx_.config.ttr_initial_s > 0.0 && ctx_.config.ttr_alpha > 0.0 &&
        t.ttr_s <= 0.0) {
      fail(Category::kConsistency, net::kNoNode,
           "TTR for key " + std::to_string(t.key) +
               " collapsed to zero despite positive seed and alpha");
    }
    if (!bounded_above(t.ttr_s, ttr_ceiling)) {
      fail(Category::kConsistency, net::kNoNode,
           "TTR for key " + std::to_string(t.key) + " (" +
               std::to_string(t.ttr_s) + " s) exceeds the Eq. 2 bound " +
               std::to_string(ttr_ceiling) + " s");
    }
  });
  const int push_budget = ctx_.config.push_retries;
  ctx_.consistency->visit_pending_pushes(
      [&](const core::ConsistencyScheme::PushView& p) {
        if (p.retries_left < 0 || p.retries_left > push_budget) {
          fail(Category::kConsistency, p.updater,
               "push for key " + std::to_string(p.key) + " has " +
                   std::to_string(p.retries_left) +
                   " retries left (budget " + std::to_string(push_budget) +
                   ")");
        }
      });
  const core::Metrics& m = ctx_.metrics;
  if (m.false_hits > m.cache_served_valid) {
    fail(Category::kConsistency, net::kNoNode,
         "false_hits " + std::to_string(m.false_hits) +
             " exceeds cache_served_valid " +
             std::to_string(m.cache_served_valid));
  }
}

// Energy accounting: every per-node meter is finite and non-negative,
// the network total only grows, and the channel-discard meter stays zero
// under a lossless channel (nothing to discard).
void InvariantChecker::audit_energy() {
  const energy::EnergyAccountant& energy = ctx_.net.energy();
  const bool lossless = ctx_.net.channel_model().lossless();
  double total = 0.0;
  for (std::size_t i = 0; i < energy.node_count(); ++i) {
    const energy::EnergyBreakdown& b = energy.node(i);
    const double fields[] = {b.broadcast_send_mj, b.broadcast_recv_mj,
                             b.p2p_send_mj,       b.p2p_recv_mj,
                             b.p2p_discard_mj,    b.channel_discard_mj};
    for (const double f : fields) {
      if (!std::isfinite(f) || f < 0.0) {
        fail(Category::kEnergy, static_cast<net::NodeId>(i),
             "energy meter is negative or non-finite (" + std::to_string(f) +
                 " mJ)");
      }
    }
    if (lossless && b.channel_discard_mj != 0.0) {
      fail(Category::kEnergy, static_cast<net::NodeId>(i),
           "channel-discard energy charged under a lossless channel (" +
               std::to_string(b.channel_discard_mj) + " mJ)");
    }
    total += b.total_mj();
  }
  if (!bounded_above(last_energy_total_mj_, total)) {
    fail(Category::kEnergy, net::kNoNode,
         "network energy moved backwards (" +
             std::to_string(last_energy_total_mj_) + " mJ -> " +
             std::to_string(total) + " mJ)");
  }
  last_energy_total_mj_ = total;
}

}  // namespace precinct::check
