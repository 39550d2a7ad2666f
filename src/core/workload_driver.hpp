// WorkloadDriver — everything that *drives* the protocol rather than
// implementing it: Zipf request sampling (with hotspot rotation),
// Poisson request/update generators, GPSR beaconing and failure/churn
// injection.  Each generator is a self-rescheduling simulator event,
// generation-guarded so a crash/rejoin cycle cannot double the load.
//
// Communicates with the protocol modules only via the EngineContext
// (DESIGN.md §8); it owns the kBeacon packet kind.
#pragma once

#include <memory>

#include "core/engine_context.hpp"
#include "workload/workload_script.hpp"

namespace precinct::core {

class WorkloadDriver {
 public:
  explicit WorkloadDriver(EngineContext& ctx) noexcept : ctx_(ctx) {}

  WorkloadDriver(const WorkloadDriver&) = delete;
  WorkloadDriver& operator=(const WorkloadDriver&) = delete;

  /// kBeacon receive path: refresh the sender's neighbor-table entry.
  void handle_beacon(net::NodeId self, const net::Packet& packet);

  /// Zipf-sample a key, applying the hotspot rotation if configured.
  [[nodiscard]] geo::Key sample_key(net::NodeId peer);

  void schedule_next_request(net::NodeId peer);
  void schedule_next_update(net::NodeId peer);
  /// Schedule a deterministic scripted workload (workload/workload_script)
  /// on top of the generators.  Owner-gated like every other driver: in a
  /// world-sharded run each domain applies only its owned nodes' lines,
  /// so a fleet of replicas executes the script exactly once.  One-shot
  /// events: a node found dead at its instant skips the line.
  void schedule_script(const std::vector<workload::ScriptEvent>& events);
  void schedule_region_checks();
  /// Flash-crowd Zipf drift: every zipf_drift_step_s, rebuild the shared
  /// generator's CDF for theta = clamp(base + drift * t, 0, 4).  A
  /// deterministic function of sim time, so every world-sharded domain
  /// re-skews identically without coordination.
  void schedule_zipf_drift();
  void schedule_crashes();
  void schedule_joins();
  void schedule_beacon(net::NodeId peer);

 private:
  /// The failure-injection RNG: ctx.rng in a plain run; in a
  /// world-sharded run a per-domain stream (salt 0xFA11 ^ domain) so
  /// every domain injects its own owned-population share independently
  /// and deterministically for any worker count.
  [[nodiscard]] support::Rng& inject_rng();
  /// Fraction of the world this engine owns (1.0 in a plain run) — the
  /// churn rates scale by it so the network-wide rate is preserved.
  [[nodiscard]] double owned_fraction() const;

  EngineContext& ctx_;
  std::unique_ptr<support::Rng> shard_inject_rng_;
};

}  // namespace precinct::core
