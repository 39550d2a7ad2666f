// Region-sharded conservative parallel discrete-event execution
// (DESIGN.md §11).
//
// The unit of parallelism is a *domain*: an independent Simulator (plus
// whatever model runs on it) that interacts with other domains only
// through timestamped cross-domain messages.  A ShardExecutor owns the
// mapping domain -> shard (one worker thread per shard) and advances all
// domains through lookahead windows, one barrier crossing per window:
//
//   window W, ending at w_end:
//     compute:  every shard advances its domains' simulators to w_end;
//               callbacks may post() cross-domain messages into the
//               SPSC mailboxes of W's parity, and each shard publishes
//               its domains' next-event bound;
//     barrier;
//     merge:    every shard drains the parity-W mailboxes addressed to
//               its own domains, scheduling each message into the
//               destination simulator in (due, src domain, seq) order,
//               then computes the next window end from the published
//               bounds and starts computing it.
//
// Mailboxes and published bounds are double-buffered by window parity,
// so a shard that is already computing W+1 (posting into the other
// parity) never touches what a slower shard is still merging from W.
//
// Window cadence (next_window_end): window ends lie on a fixed grid per
// run_until() phase — t_{k+1} = min(t_k + lookahead, phase end) from the
// phase start — and the executor keeps only the grid windows that can
// carry work: the phase's first and last windows, and each window that
// reaches the earliest pending event or posted message anywhere.  The
// grid windows in between would execute, post and merge nothing, so
// skipping them moves no event and no message due time.
//
// Conservative safety: post() requires due >= the current window's end
// (i.e. the message latency must be at least the lookahead), so a merged
// message can never be scheduled into a domain's past.  The lookahead is
// therefore the minimum cross-domain delivery latency — for a
// world-sharded PReCinCt run, the radio's MAC overhead plus propagation
// delay (WirelessNet::world_lookahead).
//
// Determinism: the kept windows, the mailbox contents per window, and
// the (due, src, seq) merge order are all pure functions of the
// configuration — the shard count only decides which thread does the
// work, never in which order messages are applied.  Fixed-seed runs are
// byte-identical for any n_shards, which the scenario packs' world gate
// and the scenario fuzzer's metrics(K) == metrics(1) property check.
//
// Threading: each run_until() call spins up its cohort (n_shards - 1
// std::threads; the caller is shard 0) synchronized by a reusable
// support::Barrier.  The cohort deliberately does NOT run on the global
// ThreadPool: queued pool tasks have no co-scheduling guarantee, so K
// mutually-blocking barrier participants on a busy pool would deadlock
// (see support/thread_pool.hpp).  n_shards == 1 runs the identical
// window loop inline with zero threads.  The executor starts exactly
// the workers it is handed; callers size the cohort — WorldShardedScenario
// caps it at min(shards, domains, support::usable_cpus()), since a
// worker that cannot run alongside its peers only adds a futex hand-off
// to every window.
#pragma once

#include <cstdint>
#include <exception>
#include <vector>

#include "sim/event_callback.hpp"
#include "sim/simulator.hpp"
#include "support/thread_pool.hpp"

namespace precinct::sim {

/// The shard window cadence, shared by ShardExecutor and the UDP fleet's
/// NodeDaemon: the end of the first grid window after the one ending at
/// `window_end` that reaches `next_due` (inclusive: a window runs events
/// due at its end), or `phase_end` when none does.  Grid ends are the
/// repeated min(t + lookahead, phase_end) additions from the phase
/// start, so every kept window ends at the bit-identical time a
/// fixed-cadence loop would reach.  Pass next_due = -infinity to get the
/// next grid window unconditionally.  Requires window_end < phase_end.
[[nodiscard]] double next_window_end(double window_end, double next_due,
                                     double lookahead,
                                     double phase_end) noexcept;

/// One cross-domain handoff: run `fn` on the destination domain at `due`.
struct CrossShardMsg {
  double due = 0.0;
  std::uint32_t src_domain = 0;
  std::uint64_t seq = 0;  ///< per-(src,dst) mailbox sequence
  EventCallback fn;
};

/// Single-producer single-consumer mailbox for one (src, dst) domain
/// pair and window parity.  Synchronization is structural, not atomic:
/// the producer (the worker advancing src) appends only while computing
/// a window of this parity, the consumer (the worker owning dst) drains
/// only after that window's barrier and before the next one, and the
/// producer returns to this parity only after that next barrier.
class SpscMailbox {
 public:
  void push(double due, std::uint32_t src, EventCallback fn) {
    msgs_.push_back(CrossShardMsg{due, src, next_seq_++, std::move(fn)});
  }
  /// Consumer side: move the pending batch out (mailbox keeps capacity).
  void drain_into(std::vector<CrossShardMsg>& out) {
    for (CrossShardMsg& m : msgs_) out.push_back(std::move(m));
    msgs_.clear();
  }

 private:
  std::vector<CrossShardMsg> msgs_;
  std::uint64_t next_seq_ = 0;
};

class ShardExecutor {
 public:
  struct Options {
    std::uint32_t n_shards = 1;
    /// Window length == minimum cross-domain message latency.
    double lookahead_s = 0.25;
  };

  /// `domains[d]` must outlive the executor; `shard_of[d]` maps each
  /// domain to a shard in [0, n_shards) (geo::partition_grid produces
  /// balanced, adjacency-aware assignments).
  ShardExecutor(std::vector<Simulator*> domains,
                std::vector<std::uint32_t> shard_of, const Options& options);

  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  /// Post a cross-domain message.  Callable only from code running inside
  /// the compute phase of `src` (a callback on src's simulator) or, when
  /// the executor is idle, from the owning thread during setup.  Enforces
  /// the conservative bound: due must be at or after the current window's
  /// end (message latency >= lookahead), else throws std::logic_error.
  void post(std::uint32_t src, std::uint32_t dst, double due,
            EventCallback fn);

  /// Advance every domain to `end_time` through barrier-synced lookahead
  /// windows.  May be called repeatedly with increasing times (the
  /// sharded scenario runs warm-up and measurement as separate calls so
  /// phase boundaries stay exact window boundaries).
  void run_until(double end_time);

  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] std::uint32_t n_shards() const noexcept { return n_shards_; }
  [[nodiscard]] std::size_t domain_count() const noexcept {
    return domains_.size();
  }
  /// Windows run so far — only the kept ones (identical for any shard
  /// count).
  [[nodiscard]] std::uint64_t windows() const noexcept { return windows_; }
  /// Cross-domain messages merged so far.
  [[nodiscard]] std::uint64_t messages_merged() const noexcept {
    return messages_merged_;
  }
  /// End of the window domain `src` is computing (== now() when idle).
  /// Call it from src's compute phase or while idle.  Models that
  /// exchange state exactly at window boundaries (the world shard halo)
  /// stamp their posts with this time: it is the earliest due the
  /// conservative bound admits.
  [[nodiscard]] double window_end(std::uint32_t src) const noexcept {
    return shards_[shard_of_[src]].window_end;
  }

 private:
  /// One shard's cursor through the window sequence.  Every shard steps
  /// its own copy through the identical sequence (each computes the next
  /// window from the same published bounds), so there is no controller.
  /// Only the owning worker writes it while a run is in progress.
  struct alignas(64) ShardState {
    double window_end = 0.0;
    std::uint64_t windows = 0;  ///< windows run; its parity picks buffers
    double posted_min = 0.0;    ///< earliest due posted this window
    std::uint64_t merged = 0;
    std::exception_ptr error;   ///< read only after the cohort joined
  };
  /// What a shard publishes right before a window's barrier, for every
  /// shard to read right after it.
  struct alignas(64) Bound {
    double next_due = 0.0;  ///< earliest pending event or posted message
    bool failed = false;    ///< this shard caught an exception
  };

  [[nodiscard]] SpscMailbox& mailbox(std::uint64_t window, std::uint32_t src,
                                     std::uint32_t dst) {
    const std::size_t n = domains_.size();
    return mailboxes_[((window & 1) * n + src) * n + dst];
  }
  /// Merge phase for one shard: drain the `window`-parity mail addressed
  /// to its domains.
  void merge_shard(std::uint32_t shard, std::uint64_t window);
  /// The window loop run by every shard until `end_time`.
  void shard_loop(std::uint32_t shard, double end_time);

  std::vector<Simulator*> domains_;
  std::vector<std::uint32_t> shard_of_;
  std::vector<std::vector<std::uint32_t>> shard_members_;
  std::uint32_t n_shards_;
  double lookahead_;

  std::vector<SpscMailbox> mailboxes_;  // (parity, src, dst)
  /// Per-shard merge scratch (sorting each destination's batch).
  std::vector<std::vector<CrossShardMsg>> merge_scratch_;
  std::vector<ShardState> shards_;
  std::vector<Bound> bounds_;  // (parity, shard)

  double now_ = 0.0;
  std::uint64_t windows_ = 0;
  std::uint64_t messages_merged_ = 0;
  support::Barrier barrier_;
};

}  // namespace precinct::sim
