#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#if defined(__linux__)
#include <sched.h>
#endif

namespace precinct::support {

namespace {
thread_local bool t_in_pool_worker = false;
}  // namespace

std::size_t usable_cpus() noexcept {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
#endif
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) n_threads = usable_cpus();
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(0);
  return pool;
}

bool ThreadPool::in_worker() noexcept { return t_in_pool_worker; }

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto fut = packaged.get_future();
  {
    const std::scoped_lock lock(mutex_);
    queue_.push(std::move(packaged));
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::worker_loop() {
  t_in_pool_worker = true;
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();  // exceptions are captured in the packaged_task's future
  }
}

namespace {

/// Shared state of one parallel_for call.  Helpers (pool workers) and the
/// caller claim indices from `next`; the caller waits until every claimed
/// index has finished.  Kept alive by shared_ptr: helper tasks that start
/// after the caller returned see next >= n and exit untouched.
struct ForState {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> in_flight{0};
  std::mutex mutex;
  std::condition_variable done_cv;
  std::exception_ptr error;

  void drain() {
    for (;;) {
      in_flight.fetch_add(1, std::memory_order_acq_rel);
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        finish_one();
        return;
      }
      try {
        (*fn)(i);
      } catch (...) {
        {
          const std::scoped_lock lock(mutex);
          if (!error) error = std::current_exception();
        }
        next.store(n, std::memory_order_relaxed);  // abandon the rest
      }
      finish_one();
    }
  }

  void finish_one() {
    if (in_flight.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
        next.load(std::memory_order_relaxed) >= n) {
      const std::scoped_lock lock(mutex);
      done_cv.notify_all();
    }
  }
};

}  // namespace

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t max_parallelism) {
  if (n == 0) return;
  if (n == 1 || max_parallelism == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool& pool = ThreadPool::global();
  auto state = std::make_shared<ForState>();
  state->fn = &fn;
  state->n = n;
  // The caller covers one share; helpers cover the rest.  Helpers only run
  // on idle workers, so a nested call from inside the pool degrades to the
  // caller draining its whole batch inline — never a deadlock, never a
  // thread spawn.
  std::size_t helpers = std::min(pool.size(), n - 1);
  if (max_parallelism != 0) {
    helpers = std::min(helpers, max_parallelism - 1);
  }
  for (std::size_t t = 0; t < helpers; ++t) {
    pool.submit([state] { state->drain(); });
  }
  state->drain();
  std::unique_lock lock(state->mutex);
  state->done_cv.wait(lock, [&] {
    return state->next.load(std::memory_order_relaxed) >= n &&
           state->in_flight.load(std::memory_order_acquire) == 0;
  });
  if (state->error) std::rethrow_exception(state->error);
}

Barrier::Barrier(std::size_t parties) : parties_(parties == 0 ? 1 : parties) {}

void Barrier::arrive_and_wait() {
  std::unique_lock lock(mutex_);
  const std::uint64_t my_generation = generation_;
  if (++waiting_ == parties_) {
    waiting_ = 0;
    ++generation_;
    lock.unlock();
    cv_.notify_all();
    return;
  }
  cv_.wait(lock, [&] { return generation_ != my_generation; });
}

std::uint64_t Barrier::cycles() const noexcept {
  const std::scoped_lock lock(mutex_);
  return generation_;
}

}  // namespace precinct::support
