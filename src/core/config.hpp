// Scenario configuration: one struct drives the whole stack, mirroring the
// paper's §6.1 simulation environment.  Field defaults are the paper's
// defaults wherever it states them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/policies.hpp"
#include "consistency/modes.hpp"
#include "energy/feeney_model.hpp"
#include "geo/geometry.hpp"
#include "mobility/random_waypoint.hpp"
#include "net/wireless_net.hpp"
#include "routing/expanding_ring.hpp"
#include "workload/data_catalog.hpp"

namespace precinct::core {

/// Which data retrieval scheme the network runs (§6.2 compares PReCinCt
/// against the two unstructured-P2P baselines).
enum class RetrievalKind : std::uint8_t {
  kPrecinct,       ///< region hash + GPSR + localized flood
  kFlooding,       ///< network-wide flood per request
  kExpandingRing,  ///< TTL-doubling ring search
};

[[nodiscard]] const char* to_string(RetrievalKind scheme) noexcept;

/// One heterogeneous-fleet node class (config keys
/// `class.<name>.count/cache_kb/speed/fixed`).  Classes occupy contiguous
/// node-id ranges in name order; attributes left at their zero defaults
/// inherit the scenario-wide knobs, so a single class with no overrides is
/// byte-identical to the homogeneous fleet of the same size.
struct NodeClassConfig {
  std::string name;
  std::size_t count = 0;
  /// Per-peer cache capacity in KiB; 0 inherits `cache_fraction` sizing.
  double cache_kb = 0.0;
  /// Class speed cap (its v_max, paired with min(v_min, speed) as the
  /// floor); 0 inherits the scenario v_min/v_max.
  double speed = 0.0;
  /// Fixed roadside unit: statically placed, never moves or migrates.
  bool fixed = false;
};

struct PrecinctConfig {
  // Special members are defaulted out-of-line (config_io.cpp) so
  // construction/destruction of config temporaries stays opaque to
  // caller TUs — GCC 12's -Wmaybe-uninitialized otherwise reports false
  // positives on the inlined string-member destructors of by-value
  // returns under -O2 -Werror.
  PrecinctConfig();
  PrecinctConfig(const PrecinctConfig&);
  PrecinctConfig(PrecinctConfig&&) noexcept;
  PrecinctConfig& operator=(const PrecinctConfig&);
  PrecinctConfig& operator=(PrecinctConfig&&) noexcept;
  ~PrecinctConfig();

  // -- topology & regions (paper: 1200x1200 m, 9 equal regions) ------------
  geo::Rect area{{0.0, 0.0}, {1200.0, 1200.0}};
  std::uint32_t regions_x = 3;
  std::uint32_t regions_y = 3;
  std::size_t n_nodes = 80;
  /// Heterogeneous fleet: node classes in contiguous id ranges, sorted by
  /// name.  Empty (the default) is the classic homogeneous fleet; when
  /// non-empty, the class counts must sum to n_nodes.
  std::vector<NodeClassConfig> node_classes;

  // -- radio & energy --------------------------------------------------------
  net::WirelessConfig wireless;  // 250 m range, 11 Mbps defaults
  energy::FeeneyModel energy_model;

  // -- mobility (paper: random waypoint, 5 s pause) -------------------------
  /// "random-waypoint" (paper default), "random-direction", "gauss-markov",
  /// "manhattan" (vehicular street grid), "commuter" (day/night attractor
  /// churn) or "static".  `mobile == false` forces "static".
  std::string mobility_model = "random-waypoint";
  bool mobile = true;
  double v_min = 0.5;
  double v_max = 6.0;
  double pause_s = 5.0;
  /// Manhattan grid: distance between parallel streets and the turn
  /// probability at each intersection.
  double street_spacing_m = 100.0;
  double turn_probability = 0.25;
  /// Commuter flow: full day/night cycle length and attractor hub count.
  double commuter_period_s = 400.0;
  std::size_t commuter_hubs = 3;
  /// How often peers check whether they crossed a region boundary (§2.3).
  double region_check_interval_s = 1.0;

  // -- workload (paper: Poisson mean 30 s, Zipf theta) ----------------------
  workload::DataCatalogConfig catalog;
  double zipf_theta = 0.8;
  /// Flash-crowd dynamics: every interval the popularity ranking rotates
  /// by `hotspot_shift` items, so yesterday's hot content cools off.  0
  /// disables rotation (the paper's stationary workload).
  double hotspot_rotation_interval_s = 0.0;
  std::size_t hotspot_shift = 100;
  double mean_request_interval_s = 30.0;
  double mean_update_interval_s = 30.0;
  bool updates_enabled = false;
  /// Flash-crowd load scaling: divides the mean request interval, so 100
  /// drives 100x the paper's request rate.  1 (the default) is a bit-exact
  /// no-op on the request schedule.
  double request_rate_multiplier = 1.0;
  /// Zipf skew drift: theta moves by this much per second (clamped to
  /// [0, 4]), re-skewing popularity during the run.  0 disables drift.
  double zipf_drift_per_s = 0.0;
  /// How often the drifting theta is re-applied to the generator.
  double zipf_drift_step_s = 10.0;

  // -- caching (§3) ----------------------------------------------------------
  /// Dynamic cache capacity as a fraction of total database bytes
  /// (Fig 4/5 sweep 0.005..0.025).  0 disables dynamic caching.
  double cache_fraction = 0.02;
  std::string cache_policy = "gd-ld";
  cache::GdLdWeights gdld_weights;
  /// Popularity-gradient prefetching (extension, after the authors'
  /// companion work on caching + prefetching): when a remote fetch
  /// completes, also request up to this many of the globally hottest
  /// items the peer does not yet hold.  Prefetch latency is not counted
  /// against the request metrics; the extra traffic and energy are.
  std::size_t prefetch_count = 0;

  // -- consistency (§4) -------------------------------------------------------
  consistency::Mode consistency = consistency::Mode::kNone;
  double ttr_alpha = 0.5;       ///< Eq. 2's alpha
  double ttr_initial_s = 30.0;  ///< TTR seed before any update is seen
  /// Retransmissions of an unacknowledged update push (0 = fire and
  /// forget).  The paper assumes updates reach the home region reliably.
  int push_retries = 2;

  // -- neighbor discovery ------------------------------------------------------
  /// When true, GPSR forwards from beacon-fed neighbor tables (Karp &
  /// Kung's real mechanism: periodic position broadcasts, entries expire
  /// after neighbor_lifetime_s) instead of oracle knowledge.  Beacon
  /// traffic is charged like any other message.
  bool use_beacons = false;
  double beacon_interval_s = 1.0;
  double neighbor_lifetime_s = 3.0;
  /// GPSR's piggybacking: every received or overheard frame refreshes
  /// the sender's table entry, and a node whose own traffic substitutes
  /// for a beacon suppresses it.
  bool beacon_piggyback = true;

  // -- retrieval ---------------------------------------------------------------
  RetrievalKind retrieval = RetrievalKind::kPrecinct;
  routing::ExpandingRingConfig ring;
  int region_flood_ttl = 8;       ///< TTL for localized floods
  int network_flood_ttl = 32;     ///< TTL for the flooding baseline
  int max_route_hops = 64;        ///< GPSR hop budget
  double regional_timeout_s = 0.08;  ///< wait for a same-region answer
                                     ///< (regional flood RTT is ~10 ms)
  double remote_timeout_s = 1.0;     ///< wait for home/replica answer
                                     ///< (cross-area RTT is ~40 ms)
  /// Replica regions per key (§2.4; the paper's default is one, and notes
  /// the scheme "can be easily extended to multiple replicas").  0
  /// disables replication; lookups fall back through replicas in
  /// proximity order.
  std::size_t replica_count = 1;
  /// Retransmissions of an unanswered remote lookup before escalating to
  /// the next replica region (exponential backoff: the k-th retry waits
  /// 2^k * remote_timeout_s).  0 = the paper's fire-and-escalate behavior;
  /// raise it when running a lossy channel model.
  int request_retries = 0;

  // -- dynamic region management (§2.1; paper future work) -------------------
  /// Periodically merge under-populated regions into their nearest
  /// neighbor and separate over-populated ones.  Each operation updates
  /// the region table, floods the change to all peers (kRegionUpdate) and
  /// relocates custody of every re-homed key — all at modeled cost.
  bool dynamic_regions = false;
  double region_reconfig_interval_s = 60.0;
  std::size_t min_region_peers = 2;   ///< below this, merge
  std::size_t max_region_peers = 24;  ///< above this, separate

  // -- failure injection (§2.4) ----------------------------------------------
  /// Expected crashes per second across the network (0 = none).  Crashed
  /// nodes stay down (`sudden death`).
  double crash_rate_per_s = 0.0;
  /// Fraction of departures that are graceful (custody handed off first).
  double graceful_fraction = 1.0;
  /// Expected rejoins per second across the network: crashed peers come
  /// back (fresh state — empty caches, no custody) at this rate.  With
  /// both rates set the network reaches a churn steady state.
  double join_rate_per_s = 0.0;

  // -- world-sharded parallel execution (DESIGN.md §11, §13) -----------------
  /// Worker shards for the conservative parallel executor.  1 (the
  /// default) runs the classic single-threaded path; K > 1 selects *world
  /// sharding* — ONE world cut into region-column domains with real radio
  /// frames crossing the cut (WorldShardedScenario), whose lookahead is
  /// derived from the radio MAC/propagation timing.  At most
  /// min(shards, regions_x, usable CPUs) workers run.  Results are
  /// byte-identical for any value — shards only decide which thread does
  /// the work.
  std::uint32_t shards = 1;

  // -- scripted workload + real transport (DESIGN.md §14) --------------------
  /// Path to a deterministic workload script (`<t> request|update <node>
  /// <rank>` lines, see workload/workload_script.hpp) layered on top of
  /// the Poisson generators.  "" (default) disables.  Owner-gated, so the
  /// same file drives an in-sim run and a UDP fleet identically.
  std::string workload_script;
  /// First UDP port of a local fleet: domain d binds base_port + d
  /// (precinct_ctl's default address plan; explicit --peers overrides).
  std::uint32_t transport_base_port = 47400;
  /// Wall-clock interval between daemon status-file snapshots (0 = only
  /// the final snapshot).
  double transport_status_interval_s = 0.5;
  /// Wall-clock resend/NACK cadence for the window-barrier protocol.
  double transport_retry_s = 0.05;
  /// Wall-clock silence budget per barrier before a daemon aborts.
  double transport_timeout_s = 30.0;
  /// Post-run grace period serving resends to slower peers.
  double transport_linger_s = 5.0;

  // -- correctness harness (DESIGN.md §10) -----------------------------------
  /// Runtime invariant auditing: "" (off, default), "all", or a
  /// comma-separated subset of {net, cache, custody, pending,
  /// consistency, energy}.  The checker is observe-only — metrics are
  /// byte-identical with it on or off — and throws check::InvariantViolation
  /// on the first violated rule.
  std::string check;
  /// Audit every N executed events (>= 1).  1 = every event; larger
  /// strides amortize the audit cost on long runs.
  std::uint64_t check_stride = 64;

  // -- run control --------------------------------------------------------------
  /// When > 0, record a Metrics::Sample every interval during the
  /// measurement window (cumulative hit ratio, latency, energy).
  double sample_interval_s = 0.0;
  double warmup_s = 150.0;   ///< cache/TTR warm-up before measuring
  double measure_s = 900.0;  ///< measurement window length
  std::uint64_t seed = 1;

  /// Total simulated time.
  [[nodiscard]] double end_time_s() const noexcept {
    return warmup_s + measure_s;
  }
  /// Validate the configuration; throws std::invalid_argument with a
  /// specific message on the first problem found.  Scenario calls this,
  /// so malformed configs fail fast instead of producing silent nonsense.
  void validate() const;
  /// Dynamic cache capacity in bytes given a catalog size.
  [[nodiscard]] std::size_t cache_capacity_bytes(
      std::size_t db_bytes) const noexcept {
    return static_cast<std::size_t>(cache_fraction *
                                    static_cast<double>(db_bytes));
  }
  /// Index into node_classes owning `node` (classes occupy contiguous id
  /// ranges).  Requires a heterogeneous fleet and node < n_nodes.
  [[nodiscard]] std::size_t class_of(std::size_t node) const noexcept;
  /// True when any node class is a fixed roadside class.
  [[nodiscard]] bool has_fixed_nodes() const noexcept;
};

}  // namespace precinct::core
