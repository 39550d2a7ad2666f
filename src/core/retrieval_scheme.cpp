// RetrievalScheme — shared requester-side flow (paper §2.2, §3): issue,
// own-cache serve, validation, completion/metrics accounting, failure.
#include "core/retrieval_scheme.hpp"

#include <algorithm>
#include <string>

#include "core/consistency_scheme.hpp"

namespace precinct::core {

void RetrievalScheme::issue(net::NodeId peer, geo::Key key, bool prefetch) {
  const std::uint64_t request_id = ctx_.next_correlation_id();
  Pending pending;
  pending.key = key;
  pending.requester = peer;
  pending.created_at = ctx_.sim.now();
  pending.prefetch = prefetch;
  pending.measured = ctx_.measuring && !prefetch;
  pending_.emplace(request_id, pending);

  if (pending.measured) {
    ++ctx_.metrics.requests_issued;
    ctx_.metrics.bytes_requested += ctx_.catalog.item(key).size_bytes;
  }
  PRECINCT_TRACE(ctx_.tracer, ctx_.sim.now(), sim::TraceCategory::kProtocol,
                 peer,
                 "request #" + std::to_string(request_id) + " for key " +
                     std::to_string(key));

  const EngineContext::Copy copy = ctx_.find_copy(peer, key);
  if (copy.entry != nullptr &&
      (copy.is_custody || !copy.entry->invalidated)) {
    serve_from_own_cache(peer, request_id, *copy.entry, copy.is_custody);
    return;
  }
  start_search(request_id);
}

void RetrievalScheme::serve_from_own_cache(net::NodeId peer,
                                           std::uint64_t request_id,
                                           const cache::CacheEntry& entry,
                                           bool is_custody) {
  Pending& pending = pending_.at(request_id);
  const double ttr_remaining = entry.ttr_expiry_s - ctx_.sim.now();
  // Custody copies are the owner's copy: never polled.
  if (!is_custody && ctx_.consistency->needs_validation(ttr_remaining)) {
    pending.candidate_version = entry.version;
    pending.candidate_bytes = entry.size_bytes;
    pending.candidate_region = ctx_.peers[peer].region;
    start_validation(request_id);
    return;
  }
  complete_request(request_id, HitClass::kOwnCache, entry.version,
                   entry.size_bytes, ttr_remaining, ctx_.peers[peer].region);
}

void RetrievalScheme::start_validation(std::uint64_t request_id) {
  Pending& pending = pending_.at(request_id);
  pending.phase = Phase::kValidate;
  if (!ctx_.consistency->send_poll(pending.requester, pending.key, request_id,
                                   pending.candidate_version)) {
    // No home region to poll; serve the candidate as-is.
    complete_request(request_id, HitClass::kOwnCache,
                     pending.candidate_version, pending.candidate_bytes, 0.0,
                     pending.candidate_region);
    return;
  }
  pending.timeout =
      ctx_.sim.schedule(ctx_.config.remote_timeout_s, [this, request_id] {
        on_timeout(request_id, Phase::kValidate);
      });
}

void RetrievalScheme::on_poll_reply(const net::Packet& packet) {
  if (const auto it = pending_.find(packet.request_id);
      it != pending_.end() && it->second.phase == Phase::kValidate) {
    // Requester validating its own cached copy before serving itself.
    Pending& pending = it->second;
    pending.candidate_version = packet.version;
    complete_request(packet.request_id, HitClass::kOwnCache,
                     pending.candidate_version, pending.candidate_bytes,
                     packet.ttr_s, pending.candidate_region);
    return;
  }
  // Otherwise a responder-side validation (serve_from_copy).
  finish_responder_poll(packet.request_id);
}

void RetrievalScheme::complete_request(std::uint64_t request_id,
                                       HitClass hit_class,
                                       std::uint64_t version,
                                       std::size_t item_bytes,
                                       double ttr_remaining_s,
                                       geo::RegionId responder_region) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) return;  // duplicate response
  Pending pending = it->second;
  pending_.erase(it);
  ctx_.sim.cancel(pending.timeout);

  const net::NodeId peer = pending.requester;
  PRECINCT_TRACE(ctx_.tracer, ctx_.sim.now(), sim::TraceCategory::kProtocol,
                 peer,
                 "request #" + std::to_string(request_id) +
                     " served (class " +
                     std::to_string(static_cast<int>(hit_class)) + ", v" +
                     std::to_string(version) + ")");
  const double latency =
      hit_class == HitClass::kOwnCache && pending.phase != Phase::kValidate
          ? kLocalServeLatency
          : std::max(kLocalServeLatency, ctx_.sim.now() - pending.created_at);

  if (pending.measured) {
    Metrics& metrics = ctx_.metrics;
    ++metrics.requests_completed;
    metrics.record_hit(hit_class);
    metrics.latency_s.add(latency);
    metrics.latency_q.add(latency);
    metrics.latency_by_class[static_cast<std::size_t>(hit_class)].add(
        latency);
    if (hit_class == HitClass::kOwnCache ||
        hit_class == HitClass::kRegionalCache) {
      metrics.bytes_hit += item_bytes;
    }
    // False-hit accounting (Fig 7): every completed request is a hit
    // "shown as valid"; it is false when the served version is older than
    // the owner's (home custodian's) current copy.
    ++metrics.cache_served_valid;
    if (const auto owner_version = ctx_.authoritative_version(pending.key);
        owner_version.has_value() && version < *owner_version) {
      ++metrics.false_hits;
    }
  }

  // Touch / admit the copy (cache admission control, §3.2: cache only what
  // originated outside the requester's region).
  PeerState& p = ctx_.peers[peer];
  const double reg_dst =
      ctx_.region_distance(p.region,
                           ctx_.hash.home_region(pending.key, ctx_.regions)) /
      ctx_.region_diameter;
  if (p.cache.find(pending.key) != nullptr) {
    p.cache.touch(pending.key, ctx_.sim.now(), reg_dst);
    p.cache.refresh(pending.key, version,
                    ctx_.sim.now() + std::max(0.0, ttr_remaining_s));
  } else if (hit_class != HitClass::kOwnCache &&
             responder_region != p.region &&
             p.cache.capacity_bytes() > 0) {
    cache::CacheEntry entry;
    entry.key = pending.key;
    entry.size_bytes = item_bytes;
    entry.version = version;
    entry.access_count = 1.0;
    entry.region_distance = reg_dst;
    entry.ttr_expiry_s = ctx_.sim.now() + std::max(0.0, ttr_remaining_s);
    entry.fetched_at_s = entry.last_access_s = ctx_.sim.now();
    const auto result = p.cache.insert(entry);
    if (ctx_.tracer != nullptr &&
        ctx_.tracer->enabled(sim::TraceCategory::kCache)) {
      std::string msg = result.admitted ? "cached key " : "rejected key ";
      msg += std::to_string(pending.key);
      for (const geo::Key victim : result.evicted) {
        msg += ", evicted " + std::to_string(victim);
      }
      ctx_.tracer->emit(ctx_.sim.now(), sim::TraceCategory::kCache, peer,
                        std::move(msg));
    }
  }
  // Extension: after a real remote fetch, opportunistically warm the
  // cache with the hottest items this peer lacks.
  const bool remote = hit_class == HitClass::kHomeRegion ||
                      hit_class == HitClass::kReplicaRegion ||
                      hit_class == HitClass::kEnRoute;
  if (!pending.prefetch && remote) maybe_prefetch(peer);
}

void RetrievalScheme::maybe_prefetch(net::NodeId peer) {
  if (ctx_.config.prefetch_count == 0) return;
  std::size_t fired = 0;
  for (std::size_t rank = 0;
       rank < ctx_.catalog.size() && fired < ctx_.config.prefetch_count;
       ++rank) {
    std::size_t effective = rank;
    if (ctx_.config.hotspot_rotation_interval_s > 0.0) {
      const auto rotations = static_cast<std::size_t>(
          ctx_.sim.now() / ctx_.config.hotspot_rotation_interval_s);
      effective = (rank + rotations * ctx_.config.hotspot_shift) %
                  ctx_.catalog.size();
    }
    const geo::Key key = ctx_.catalog.key_of(effective);
    if (ctx_.find_copy(peer, key).entry != nullptr) continue;
    issue(peer, key, /*prefetch=*/true);
    ++fired;
  }
}

void RetrievalScheme::fail_request(std::uint64_t request_id) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  PRECINCT_TRACE(ctx_.tracer, ctx_.sim.now(), sim::TraceCategory::kProtocol,
                 it->second.requester,
                 "request #" + std::to_string(request_id) + " FAILED");
  if (it->second.measured) {
    ++ctx_.metrics.requests_failed;
  }
  ctx_.sim.cancel(it->second.timeout);
  pending_.erase(it);
}

std::uint64_t RetrievalScheme::measured_pending() const noexcept {
  std::uint64_t count = 0;
  for (const auto& [id, p] : pending_) {
    if (p.measured) ++count;
  }
  return count;
}

}  // namespace precinct::core
