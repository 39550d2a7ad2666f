// Unit tests for the discrete-event engine: ordering, cancellation,
// clock semantics, determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "support/rng.hpp"

// Counting replacements for the global allocator, used by the
// SteadyStateSchedulingIsAllocationFree test below.  Replacement functions
// must live at global scope; the default operator new[]/delete[] route
// through these, so counting the scalar forms covers array news too.
namespace alloc_probe {
std::atomic<std::uint64_t> count{0};
}  // namespace alloc_probe

void* operator new(std::size_t size) {
  alloc_probe::count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// Never inlined: GCC 12 inlines a replacement delete into its callers and
// then flags the std::free of memory from (our) operator new as
// -Wmismatched-new-delete, a false positive.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using precinct::sim::EventHandle;
using precinct::sim::Simulator;

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule(2.5, [&] { seen = sim.now(); });
  sim.run_all();
  EXPECT_EQ(seen, 2.5);
  EXPECT_EQ(sim.now(), 2.5);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&] { ++fired; });
  sim.schedule(10.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(20.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventAtExactBoundaryRuns) {
  Simulator sim;
  bool fired = false;
  sim.schedule(5.0, [&] { fired = true; });
  sim.run_until(5.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, NestedSchedulingFromCallbacks) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule(1.0, [&] {
    times.push_back(sim.now());
    sim.schedule(1.0, [&] { times.push_back(sim.now()); });
  });
  sim.run_all();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], 1.0);
  EXPECT_EQ(times[1], 2.0);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.schedule(2.0, [&] {
    sim.schedule(-5.0, [&] { EXPECT_EQ(sim.now(), 2.0); });
  });
  sim.run_all();
}

TEST(Simulator, ScheduleAtPastClampsToNow) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule(3.0, [&] {
    sim.schedule_at(1.0, [&] { fired_at = sim.now(); });
  });
  sim.run_all();
  EXPECT_EQ(fired_at, 3.0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventHandle h = sim.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(h));
  sim.run_all();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelTwiceIsIdempotent) {
  Simulator sim;
  const EventHandle h = sim.schedule(1.0, [] {});
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));
  sim.run_all();
}

TEST(Simulator, CancelInvalidHandleIsNoop) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(EventHandle{}));
}

TEST(Simulator, CancelOneOfManyAtSameTime) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&] { ++fired; });
  const EventHandle h = sim.schedule(1.0, [&] { fired += 100; });
  sim.schedule(1.0, [&] { ++fired; });
  sim.cancel(h);
  sim.run_all();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule(i, [] {});
  const auto h = sim.schedule(6.0, [] {});
  sim.cancel(h);
  sim.run_all();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.run_until(42.0);
  EXPECT_EQ(sim.now(), 42.0);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator sim;
  double last = -1.0;
  precinct::support::Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    sim.schedule(rng.uniform(0.0, 1000.0), [&] {
      EXPECT_GE(sim.now(), last);
      last = sim.now();
    });
  }
  sim.run_all();
  EXPECT_EQ(sim.events_executed(), 10000u);
}

TEST(Simulator, SteadyStateSchedulingIsAllocationFree) {
  // Captures at or below EventCallback::kInlineBytes live inside the pooled
  // slot, so once the arena and heap buffers have grown to working size,
  // schedule/run cycles perform zero heap allocations.
  struct Capture {  // 40 bytes: trivially copyable, inline-eligible
    void* a;
    double b;
    std::uint64_t c;
    std::uint64_t d;
    std::uint64_t e;
  };
  static_assert(sizeof(Capture) <= precinct::sim::EventCallback::kInlineBytes);
  Simulator sim;
  std::uint64_t sink = 0;
  const auto cycle = [&] {
    for (int i = 0; i < 2000; ++i) {
      const Capture cap{&sink, 0.25 * i, static_cast<std::uint64_t>(i), 1, 2};
      sim.schedule(static_cast<double>(i % 97), [cap] {
        *static_cast<std::uint64_t*>(cap.a) += cap.c;
      });
    }
    sim.run_all();
  };
  for (int warmup = 0; warmup < 3; ++warmup) cycle();
  const std::uint64_t before =
      alloc_probe::count.load(std::memory_order_relaxed);
  for (int round = 0; round < 3; ++round) cycle();
  const std::uint64_t after =
      alloc_probe::count.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
  EXPECT_EQ(sink, 6u * (2000u * 1999u / 2u));
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  bool fired = false;
  const EventHandle h = sim.schedule(1.0, [&] { fired = true; });
  sim.run_all();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(sim.cancel(h));
}

TEST(Simulator, StaleHandleCannotCancelRecycledSlot) {
  Simulator sim;
  const EventHandle stale = sim.schedule(1.0, [] {});
  sim.run_all();  // fires; the pool slot is recycled
  bool fired = false;
  sim.schedule(1.0, [&] { fired = true; });  // typically reuses that slot
  EXPECT_FALSE(sim.cancel(stale));  // generation mismatch: must not cancel
  sim.run_all();
  EXPECT_TRUE(fired);
}

TEST(Simulator, SelfCancelInsideCallbackIsNoop) {
  Simulator sim;
  EventHandle h;
  int count = 0;
  h = sim.schedule(1.0, [&] {
    ++count;
    EXPECT_FALSE(sim.cancel(h));  // already firing: too late to cancel
  });
  sim.run_all();
  EXPECT_EQ(count, 1);
}

TEST(Simulator, CancelledEventStillAdvancesClock) {
  Simulator sim;
  const EventHandle h = sim.schedule(7.0, [] {});
  sim.cancel(h);
  sim.run_all();
  EXPECT_EQ(sim.now(), 7.0);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulator, MassSameTimestampKeepsInsertionOrder) {
  // Thousands of entries, every one tied on time: the heap must still pop
  // them in exactly insertion order.
  Simulator sim;
  constexpr int kN = 5000;
  std::vector<int> order;
  order.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Simulator, CancelDuringDrainSkipsQueuedEvent) {
  // The victim is already queued behind the canceller in the same drain;
  // its tombstone must suppress it when it reaches the heap root.
  Simulator sim;
  bool victim_fired = false;
  for (int i = 0; i < 100; ++i) sim.schedule(1.0 + i, [] {});
  const EventHandle victim =
      sim.schedule(150.0, [&] { victim_fired = true; });
  sim.schedule(2.5, [&] { EXPECT_TRUE(sim.cancel(victim)); });
  sim.run_all();
  EXPECT_FALSE(victim_fired);
  EXPECT_EQ(sim.now(), 150.0);
}

TEST(Simulator, NestedRunUntilHonorsBoundDuringBatchDrain) {
  Simulator sim;
  int fired = 0;
  double nested_now = 0.0;
  int fired_at_nested_return = -1;
  for (int i = 1; i <= 200; ++i) {
    sim.schedule(static_cast<double>(i), [&] { ++fired; });
  }
  sim.schedule(5.5, [&] {
    sim.run_until(50.0);  // must consume exactly the events at t in (5.5, 50]
    nested_now = sim.now();
    fired_at_nested_return = fired;
  });
  sim.run_all();
  EXPECT_EQ(nested_now, 50.0);
  EXPECT_EQ(fired_at_nested_return, 50);
  EXPECT_EQ(fired, 200);
}

TEST(Simulator, SmallWindowDrainKeepsOrderAcrossTheSkippedAndResumedScan) {
  // A small-bound run_until over a large heap: 8 of its 208 entries are
  // due, and each of their callbacks schedules 10 events due later in the
  // same window, tied with the other parents' children.  Execution
  // follows (time, insertion) order exactly, and the 200 entries past the
  // bound stay queued.
  Simulator sim;
  struct Scheduled {
    double time;
    int id;
  };
  std::vector<Scheduled> due;
  std::vector<int> order;
  int next_id = 0;
  const auto add = [&](double t, bool spawn, const auto& self) -> void {
    const int id = next_id++;
    if (t <= 2.0) due.push_back({t, id});
    sim.schedule_at(t, [&, id, spawn] {
      order.push_back(id);
      if (!spawn) return;
      // Every parent's children tie with the other parents' children.
      for (int k = 0; k < 10; ++k) self(1.5 + 0.05 * (k % 4), false, self);
    });
  };
  for (int i = 0; i < 200; ++i) add(10.0 + i, false, add);  // not due
  for (int i = 0; i < 8; ++i) add(1.0 + 0.05 * i, true, add);
  sim.run_until(2.0);

  ASSERT_EQ(due.size(), 8u + 80u);
  std::sort(due.begin(), due.end(),
            [](const Scheduled& a, const Scheduled& b) {
              return a.time < b.time || (a.time == b.time && a.id < b.id);
            });
  std::vector<int> expected;
  for (const Scheduled& e : due) expected.push_back(e.id);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sim.pending(), 200u);
  EXPECT_EQ(sim.now(), 2.0);
}

// The queue's contract with none of its machinery: pending entries in a
// vector, each pop a linear scan for the least (time, insertion seq).
class ReferenceQueue {
 public:
  using Handle = std::size_t;  // index into entries_, never reused

  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] std::size_t pending() const { return queued_.size(); }
  [[nodiscard]] double next_event_time() const {
    double t = std::numeric_limits<double>::infinity();
    for (const Handle h : queued_) t = std::min(t, entries_[h].time);
    return t;
  }

  Handle schedule(double delay, std::function<void()> fn) {
    return schedule_at(now_ + (delay > 0.0 ? delay : 0.0), std::move(fn));
  }
  Handle schedule_at(double when, std::function<void()> fn) {
    entries_.push_back({when > now_ ? when : now_, std::move(fn), kQueued});
    queued_.push_back(entries_.size() - 1);
    return entries_.size() - 1;
  }
  bool cancel(Handle h) {
    if (h >= entries_.size() || entries_[h].state != kQueued) return false;
    entries_[h].state = kCancelled;
    return true;
  }
  void run_until(double end) {
    for (;;) {
      auto next = queued_.end();
      for (auto it = queued_.begin(); it != queued_.end(); ++it) {
        const double t = entries_[*it].time;
        if (next == queued_.end() || t < entries_[*next].time ||
            (t == entries_[*next].time && *it < *next)) {
          next = it;
        }
      }
      if (next == queued_.end() || entries_[*next].time > end) break;
      const Handle h = *next;
      queued_.erase(next);
      now_ = entries_[h].time;
      const bool cancelled = entries_[h].state == kCancelled;
      entries_[h].state = kDone;
      if (cancelled) continue;
      ++executed_;
      const std::function<void()> fn = std::move(entries_[h].fn);
      fn();  // may schedule, which can reallocate entries_
    }
    now_ = std::max(now_, end);
  }

 private:
  enum State { kQueued, kCancelled, kDone };
  struct Entry {
    double time;
    std::function<void()> fn;
    State state;
  };
  double now_ = 0.0;
  std::uint64_t executed_ = 0;
  std::vector<Entry> entries_;
  std::vector<Handle> queued_;
};

// A seeded random program that runs identically on any queue with the
// Simulator's interface.  Each event's actions are a pure function of its
// id, so two queues that execute the same order make the same calls and
// write the same log; the first differing log line is the first
// divergence.
template <typename Queue>
class RandomProgram {
 public:
  RandomProgram(Queue& q, std::uint64_t seed) : q_(q), seed_(seed) {}

  /// Schedule and cancel from outside any event, run_until(bound), then
  /// log everything the queue exposes.
  void round(std::uint64_t r, double bound) {
    precinct::support::Rng rng(
        precinct::support::hash_combine(seed_, ~std::uint64_t{0} - r));
    const std::uint64_t n = 1 + rng.uniform_int(r % 10 == 3 ? 120 : 6);
    for (std::uint64_t i = 0; i < n; ++i) act(rng);
    bounds_.push_back(bound);
    q_.run_until(bound);
    bounds_.pop_back();
    std::ostringstream line;
    line << std::hexfloat << "round " << r << " now=" << q_.now()
         << " executed=" << q_.events_executed()
         << " pending=" << q_.pending() << " next=" << q_.next_event_time();
    log_.push_back(line.str());
  }

  [[nodiscard]] const std::vector<std::string>& log() const { return log_; }

 private:
  using Handle = decltype(std::declval<Queue&>().schedule(0.0, [] {}));

  // Tied and zero delays are common on purpose; -1 exercises the clamp.
  void act(precinct::support::Rng& rng) {
    static constexpr double kDelays[] = {-1.0, 0.0, 0.0, 0.25,
                                         0.5,  1.0, 1.0, 2.75};
    std::ostringstream line;
    line << std::hexfloat;
    switch (rng.uniform_int(3)) {
      case 0:
        line << "schedule e" << add(false, kDelays[rng.uniform_int(8)]);
        break;
      case 1: {  // absolute time, one time in three in the past
        const double offset =
            rng.uniform_int(3) == 0
                ? -2.0
                : 0.25 * static_cast<double>(rng.uniform_int(8));
        line << "schedule_at e" << add(true, q_.now() + offset);
        break;
      }
      default: {
        if (handles_.empty()) return;
        const std::uint64_t target = rng.uniform_int(handles_.size());
        line << "cancel e" << target << '=' << q_.cancel(handles_[target]);
      }
    }
    line << " @" << q_.now();
    log_.push_back(line.str());
  }

  std::uint64_t add(bool absolute, double t) {
    const std::uint64_t id = handles_.size();
    handles_.emplace_back();
    const auto fn = [this, id] { fire(id); };
    handles_[id] = absolute ? q_.schedule_at(t, fn) : q_.schedule(t, fn);
    return id;
  }

  void fire(std::uint64_t id) {
    std::ostringstream line;
    line << std::hexfloat << "fire e" << id << " @" << q_.now();
    log_.push_back(line.str());
    precinct::support::Rng rng(precinct::support::hash_combine(seed_, id));
    if (rng.uniform_int(8) == 0) {  // too late: the event is running
      log_.push_back("self-cancel=" +
                     std::to_string(q_.cancel(handles_[id])));
    }
    const std::uint64_t before = rng.uniform_int(3);
    for (std::uint64_t i = 0; i < before; ++i) act(rng);
    if (bounds_.size() < 3 && rng.uniform_int(5) == 0) {
      // A nested run_until with an earlier bound: sometimes in the past,
      // otherwise somewhere between now and the enclosing bound.
      const double bound =
          rng.uniform_int(4) == 0
              ? q_.now() - 1.0
              : q_.now() + (bounds_.back() - q_.now()) * rng.uniform();
      bounds_.push_back(bound);
      q_.run_until(bound);
      bounds_.pop_back();
      std::ostringstream ret;
      ret << std::hexfloat << "return e" << id << " @" << q_.now()
          << " executed=" << q_.events_executed()
          << " pending=" << q_.pending();
      log_.push_back(ret.str());
      if (rng.uniform_int(2) == 0) act(rng);
    }
  }

  Queue& q_;
  std::uint64_t seed_;
  std::vector<Handle> handles_;
  std::vector<double> bounds_;
  std::vector<std::string> log_;
};

TEST(Simulator, MatchesAPlainTimeSeqSortedReference) {
  // Top-level bounds land on the delay grid (ties with event times) and
  // sometimes step backwards, which must run nothing.
  static constexpr double kSteps[] = {-0.5, 0.0, 0.25, 0.5, 1.0, 2.75};
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Simulator sim;
    ReferenceQueue ref;
    RandomProgram<Simulator> on_sim(sim, seed);
    RandomProgram<ReferenceQueue> on_ref(ref, seed);
    double bound = 0.0;
    precinct::support::Rng steps(seed);
    for (std::uint64_t r = 0; r < 60; ++r) {
      bound += kSteps[steps.uniform_int(6)];
      on_sim.round(r, bound);
      on_ref.round(r, bound);
    }
    const std::vector<std::string>& got = on_sim.log();
    const std::vector<std::string>& want = on_ref.log();
    const auto diverged =
        std::mismatch(got.begin(), got.end(), want.begin(), want.end());
    ASSERT_TRUE(diverged.first == got.end() && diverged.second == want.end())
        << "seed " << seed << ", log line " << (diverged.first - got.begin())
        << "\n  simulator: "
        << (diverged.first == got.end() ? "<end>" : *diverged.first)
        << "\n  reference: "
        << (diverged.second == want.end() ? "<end>" : *diverged.second);
    EXPECT_GT(sim.events_executed(), 100u) << "seed " << seed;
  }
}

TEST(Simulator, HandlesStayDeadAcrossManyRecycles) {
  Simulator sim;
  std::vector<EventHandle> old;
  for (int round = 0; round < 5; ++round) {
    for (const EventHandle& h : old) EXPECT_FALSE(sim.cancel(h));
    std::vector<EventHandle> fresh;
    for (int i = 0; i < 64; ++i) {
      fresh.push_back(sim.schedule(0.5, [] {}));
    }
    sim.run_all();
    old = fresh;
  }
  EXPECT_EQ(sim.events_executed(), 5u * 64u);
}

TEST(Tracer, DisabledByDefault) {
  precinct::sim::Tracer tracer;
  tracer.emit(1.0, precinct::sim::TraceCategory::kProtocol, 0, "x");
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.total_emitted(), 0u);
}

TEST(Tracer, CategoryFiltering) {
  precinct::sim::Tracer tracer;
  tracer.enable(precinct::sim::TraceCategory::kCache);
  tracer.emit(1.0, precinct::sim::TraceCategory::kCache, 3, "hit");
  tracer.emit(2.0, precinct::sim::TraceCategory::kProtocol, 4, "nope");
  ASSERT_EQ(tracer.size(), 1u);
  EXPECT_EQ(tracer.events().front().node, 3u);
  tracer.disable(precinct::sim::TraceCategory::kCache);
  tracer.emit(3.0, precinct::sim::TraceCategory::kCache, 3, "gone");
  EXPECT_EQ(tracer.size(), 1u);
}

TEST(Tracer, RingBufferBounds) {
  precinct::sim::Tracer tracer(4);
  tracer.enable_all();
  for (int i = 0; i < 10; ++i) {
    tracer.emit(i, precinct::sim::TraceCategory::kRadio, 0,
                std::to_string(i));
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.total_emitted(), 10u);
  EXPECT_EQ(tracer.events().front().message, "6");
  const auto last2 = tracer.last(2);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_EQ(last2[1].message, "9");
}

TEST(Tracer, DumpFormatsLines) {
  precinct::sim::Tracer tracer;
  tracer.enable_all();
  tracer.emit(12.5, precinct::sim::TraceCategory::kCustody, 7, "moved keys");
  std::ostringstream os;
  tracer.dump(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("custody"), std::string::npos);
  EXPECT_NE(out.find("node 7"), std::string::npos);
  EXPECT_NE(out.find("moved keys"), std::string::npos);
}

TEST(Tracer, CategoriesHaveNames) {
  using precinct::sim::TraceCategory;
  for (int c = 0; c <= 5; ++c) {
    EXPECT_STRNE(precinct::sim::to_string(static_cast<TraceCategory>(c)),
                 "unknown");
  }
}

}  // namespace
