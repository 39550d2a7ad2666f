// Deterministic discrete-event simulation engine.
//
// Replaces the paper's use of ns-2: events are (time, sequence) ordered so
// ties break by insertion order and every run with the same seed replays
// identically.  The engine is single-threaded by design — parallelism in
// this codebase lives one level up, across independent scenario runs.
//
// Hot-path internals (DESIGN.md §7): events live in a chunked slot arena
// (stable addresses, intrusive free list, no realloc moves) and are
// ordered by one 4-ary min-heap of 16-byte (time, seq|slot) entries; the
// drain pops its root while the root is due, and that is the only pop
// path.  Callbacks are small-buffer-optimized (EventCallback), so
// steady-state scheduling allocates nothing; cancel() is an O(1)
// tombstone on the pooled slot, skipped when popped.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_callback.hpp"

namespace precinct::sim {

/// Simulation time in seconds.
using SimTime = double;

/// Handle used to cancel a scheduled event.  Holds the event's pool slot
/// and the slot's generation at scheduling time, so a handle kept past the
/// event's execution (and the slot's reuse) can never cancel a stranger.
class EventHandle {
 public:
  EventHandle() = default;

  [[nodiscard]] bool valid() const noexcept { return gen_ != 0; }

 private:
  friend class Simulator;
  EventHandle(std::uint32_t slot, std::uint32_t gen) noexcept
      : slot_(slot), gen_(gen) {}
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;  // 0 = invalid (live slots start at generation 1)
};

/// Event-driven simulator with a monotonically advancing clock.
class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule `fn` to run `delay` seconds from now (delay clamped to >= 0).
  EventHandle schedule(SimTime delay, EventCallback fn) {
    const SimTime d = delay > 0.0 ? delay : 0.0;
    return schedule_impl(now_ + d, std::move(fn));
  }

  /// Schedule `fn` at an absolute time (clamped to >= now()).
  EventHandle schedule_at(SimTime when, EventCallback fn) {
    return schedule_impl(when > now_ ? when : now_, std::move(fn));
  }

  /// Cancel a previously scheduled event: O(1) tombstone on the pooled
  /// slot.  No-op if already fired or already cancelled.  Returns true if
  /// the event was live.
  bool cancel(EventHandle h);

  /// Run events until the queue drains or the clock passes `end_time`.
  /// Events stamped later than end_time remain queued and unexecuted;
  /// the clock finishes at exactly end_time.
  void run_until(SimTime end_time);

  /// Run until the queue is completely empty.
  void run_all();

  /// Number of events executed so far.
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return executed_;
  }

  /// Number of events currently pending (including cancelled-but-queued).
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

  /// Time of the earliest pending event, +infinity when none is queued.
  /// Cancelled-but-queued tombstones count, so this is a lower bound on
  /// the next event that will actually fire — which is all the shard
  /// window agreement (ShardExecutor, NodeDaemon) needs.
  [[nodiscard]] SimTime next_event_time() const noexcept;

  /// Install an observer invoked synchronously after every executed
  /// event (the invariant checker's audit point).  The hook is NOT an
  /// event: it never advances the clock, never counts toward
  /// events_executed(), and an empty hook leaves the drain loop
  /// untouched, so enabling an observe-only hook cannot perturb a run.
  /// Pass an empty function to detach.  The hook must not schedule,
  /// cancel or run events.
  void set_post_event_hook(EventCallback hook) {
    post_event_ = std::move(hook);
  }

 private:
  // Bookkeeping fields lead and the callback's storage sits last, so
  // scheduling or firing an event with a small capture touches only the
  // front of the slot — usually a single cache line.
  struct Slot {
    std::uint32_t generation = 1;
    std::uint32_t next_free = 0;  // intrusive free list link
    bool live = false;            // scheduled, not yet fired or recycled
    bool cancelled = false;       // tombstone: recycle silently when popped
    EventCallback fn;
  };

  // Heap entries pack (seq, slot) into one key: seq in the high 40 bits so
  // key order *is* insertion order (seq is unique), slot in the low 24.
  // Bounds: < 2^24 concurrently pending events, < 2^40 events per run.
  struct HeapEntry {
    SimTime time;
    std::uint64_t key;
  };
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1u;
  static constexpr std::uint32_t kNullSlot = ~0u;
  static constexpr std::size_t kArity = 4;
  // Slots live in fixed 512-entry blocks: addresses stay stable across
  // arena growth, so a running callback's captures never move under it.
  static constexpr unsigned kBlockShift = 9;
  static constexpr std::size_t kBlockSize = std::size_t{1} << kBlockShift;

  // Bitwise ops on purpose: all three compares evaluate unconditionally and
  // combine without branches, so the heap sifts (whose outcomes are
  // data-random and unpredictable) compile to cmov instead of mispredicts.
  static bool before(const HeapEntry& a, const HeapEntry& b) noexcept {
    return (a.time < b.time) |
           ((a.time == b.time) & (a.key < b.key));
  }

  [[nodiscard]] Slot& slot_ref(std::uint32_t slot) noexcept {
    return blocks_[slot >> kBlockShift][slot & (kBlockSize - 1)];
  }

  EventHandle schedule_impl(SimTime when, EventCallback&& fn);
  [[nodiscard]] std::uint32_t alloc_slot();
  void recycle_slot(std::uint32_t slot);
  void heap_push(HeapEntry entry);
  void heap_pop_root();
  /// Pops ready events (time <= bound) and executes non-cancelled ones.
  void drain(SimTime bound);

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  EventCallback post_event_;  ///< observe-only; see set_post_event_hook
  std::vector<HeapEntry> heap_;
  std::vector<std::unique_ptr<Slot[]>> blocks_;
  std::uint32_t next_unused_ = 0;      // first never-allocated slot index
  std::uint32_t free_head_ = kNullSlot;
};

}  // namespace precinct::sim
