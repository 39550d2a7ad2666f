// minibench — a vendored, API-compatible subset of google-benchmark.
//
// Why this exists: the perf-regression gate (tools/bench_diff.py) keys
// trustworthiness off the *library's* build type, and the only
// google-benchmark available on the image is a Debug build (the old
// BENCH_micro.json context recorded "library_build_type": "debug" — the
// timing loop itself was compiled without optimizations).  With no
// network to fetch upstream sources, the fix is a minimal in-tree
// harness that compiles with the repo's own CMAKE_BUILD_TYPE, so a
// Release build of the repo measures with a Release-built timing loop
// and honestly reports "library_build_type": "release".
//
// Scope: exactly the surface bench/micro_bench.cpp uses — BENCHMARK()
// registration with ->Arg() ranges, the `for (auto _ : state)` timing
// loop with adaptive iteration counts, DoNotOptimize,
// SetItemsProcessed, AddCustomContext, and the JSON reporter schema
// tools/bench_diff.py consumes (context provenance + per-run
// name/run_type/cpu_time entries).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace benchmark {

using IterationCount = std::int64_t;

namespace internal {
class BenchmarkRunner;
}  // namespace internal

/// Per-run state handed to each benchmark function.  Iterating `state`
/// (`for (auto _ : state)`) runs the timed region exactly
/// `max_iterations` times; the timer starts at begin() and stops when
/// the iterator is exhausted.
class State {
 public:
  class iterator {
   public:
    // The `auto _` placeholder; [[maybe_unused]] on the type silences
    // -Wunused-but-set-variable for the deliberately unused loop variable
    // (google-benchmark does the same with BENCHMARK_UNUSED).
    struct [[maybe_unused]] Value {};
    explicit iterator(IterationCount remaining) noexcept
        : remaining_(remaining) {}
    Value operator*() const noexcept { return {}; }
    iterator& operator++() noexcept {
      --remaining_;
      return *this;
    }
    bool operator!=(const iterator& other) const noexcept {
      return remaining_ != other.remaining_;
    }

   private:
    IterationCount remaining_;
  };

  iterator begin() noexcept {
    StartTiming();
    return iterator(max_iterations_);
  }
  iterator end() noexcept { return iterator(0); }

  [[nodiscard]] std::int64_t range(std::size_t index = 0) const;
  [[nodiscard]] IterationCount iterations() const noexcept {
    return max_iterations_;
  }
  void SetItemsProcessed(std::int64_t items) noexcept {
    items_processed_ = items;
  }
  [[nodiscard]] std::int64_t items_processed() const noexcept {
    return items_processed_;
  }

 private:
  friend class internal::BenchmarkRunner;
  State(IterationCount iterations, std::vector<std::int64_t> args) noexcept
      : max_iterations_(iterations), args_(std::move(args)) {}
  void StartTiming() noexcept;

  IterationCount max_iterations_;
  std::vector<std::int64_t> args_;
  std::int64_t items_processed_ = 0;
};

namespace internal {

using Function = void (*)(State&);

/// Registration record for one benchmark function; ->Arg() fans it out
/// into one run per argument (google-benchmark's fluent interface).
class Benchmark {
 public:
  Benchmark(const char* name, Function fn) : name_(name), fn_(fn) {}
  Benchmark* Arg(std::int64_t value) {
    args_.push_back(value);
    return this;
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Function function() const noexcept { return fn_; }
  [[nodiscard]] const std::vector<std::int64_t>& args() const noexcept {
    return args_;
  }

 private:
  std::string name_;
  Function fn_;
  std::vector<std::int64_t> args_;
};

Benchmark* RegisterBenchmarkInternal(Benchmark* bench);

}  // namespace internal

/// Prevents the optimizer from discarding `value` or hoisting the
/// computation that produced it (same contract as google-benchmark).
template <typename T>
inline void DoNotOptimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}
template <typename T>
inline void DoNotOptimize(T& value) {
  asm volatile("" : "+r,m"(value) : : "memory");
}

void Initialize(int* argc, char** argv);
bool ReportUnrecognizedArguments(int argc, char** argv);
std::size_t RunSpecifiedBenchmarks();
void Shutdown();
void AddCustomContext(const std::string& key, const std::string& value);

}  // namespace benchmark

#define BENCHMARK_PRIVATE_CONCAT(a, b) BENCHMARK_PRIVATE_CONCAT2(a, b)
#define BENCHMARK_PRIVATE_CONCAT2(a, b) a##b

#define BENCHMARK(fn)                                                       \
  static ::benchmark::internal::Benchmark* BENCHMARK_PRIVATE_CONCAT(        \
      benchmark_registration_, __LINE__) [[maybe_unused]] =                 \
      ::benchmark::internal::RegisterBenchmarkInternal(                     \
          new ::benchmark::internal::Benchmark(#fn, fn))
