// Persistent thread pool + parallel_for used to fan independent
// simulation runs (sweep points, seeds) across cores.
//
// Simulations themselves are single-threaded and deterministic; only the
// *sweep* is parallel, so there is no shared mutable state between tasks
// (CP.2/CP.3: each task owns its scenario and returns its metrics).
//
// parallel_for shares one process-wide pool (no per-call thread spawning)
// and the calling thread helps execute its own batch, so nested calls —
// run_sweep points fanning run_seeds replications — neither deadlock nor
// oversubscribe: an inner call runs inline on its worker while idle
// workers steal shares of it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace precinct::support {

/// CPUs this process may run on: the size of the calling thread's
/// sched_getaffinity mask (so `taskset -c 0` reads 1), or
/// hardware_concurrency when the mask cannot be read.  Always >= 1.  The
/// one answer to "how many threads can make progress at once" for both
/// the sweep pool and the shard executor's cohort.
[[nodiscard]] std::size_t usable_cpus() noexcept;

class ThreadPool {
 public:
  /// n_threads == 0 selects usable_cpus().
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task; the future resolves when it has run.
  std::future<void> submit(std::function<void()> task);

  /// Process-wide persistent pool (usable_cpus() workers), created on
  /// first use and joined at program exit.
  static ThreadPool& global();

  /// True when called from a worker thread of any ThreadPool.
  [[nodiscard]] static bool in_worker() noexcept;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Run fn(i) for i in [0, n) across the global pool and wait for all.
/// The caller participates (claims indices itself), so calls from inside a
/// pool worker complete without new threads and without deadlock.  The
/// first exception thrown by fn is rethrown after remaining indices are
/// abandoned.  `max_parallelism` (0 = unlimited) caps worker fan-out.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t max_parallelism = 0);

/// Reusable cyclic barrier for a fixed-size cohort of threads: every
/// participant blocks in arrive_and_wait() until all `parties` have
/// arrived, then all release together and the barrier resets for the next
/// cycle (generation-counted, so a fast thread re-arriving cannot slip
/// through a stale wakeup).  The sharded simulation executor uses one to
/// separate each lookahead window's compute phase from its mailbox-merge
/// phase (sim/shard_exec.hpp).
///
/// Deliberately NOT combined with the task queue above: queued pool tasks
/// have no co-scheduling guarantee, so K mutually-blocking tasks on a
/// pool with fewer than K free workers would deadlock.  A barrier cohort
/// must own its threads.
class Barrier {
 public:
  explicit Barrier(std::size_t parties);

  /// Block until all parties have arrived in this cycle.  Release order
  /// is unspecified; the release itself is a full happens-before edge
  /// (everything written before any arrive_and_wait() is visible to every
  /// party after it returns).
  void arrive_and_wait();

  [[nodiscard]] std::size_t parties() const noexcept { return parties_; }
  /// Completed cycles (for tests asserting reuse).
  [[nodiscard]] std::uint64_t cycles() const noexcept;

 private:
  const std::size_t parties_;
  std::size_t waiting_ = 0;
  std::uint64_t generation_ = 0;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
};

}  // namespace precinct::support
