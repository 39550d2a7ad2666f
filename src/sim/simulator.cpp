#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#if defined(__GNUC__) || defined(__clang__)
#define PRECINCT_PREFETCH(addr) __builtin_prefetch(addr)
#else
#define PRECINCT_PREFETCH(addr) ((void)0)
#endif

namespace precinct::sim {

EventHandle Simulator::schedule_impl(SimTime when, EventCallback&& fn) {
  assert(fn);
  // The key's bit order is time order only from +0.0 up (see HeapKey).
  assert(!std::signbit(when) && !std::isnan(when));
  const std::uint32_t slot = alloc_slot();
  Slot& s = slot_ref(slot);
  s.live = true;
  s.cancelled = false;
  s.fn = std::move(fn);
  assert(next_seq_ < (std::uint64_t{1} << (64 - kSlotBits)));
  heap_push(make_key(when, (next_seq_++ << kSlotBits) | slot));
  return EventHandle(slot, s.generation);
}

bool Simulator::cancel(EventHandle h) {
  if (!h.valid() || h.slot_ >= next_unused_) return false;
  Slot& s = slot_ref(h.slot_);
  if (s.generation != h.gen_ || !s.live || s.cancelled) return false;
  s.cancelled = true;
  s.fn.reset();  // release captured state now; the heap entry stays queued
  return true;
}

std::uint32_t Simulator::alloc_slot() {
  if (free_head_ != kNullSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slot_ref(slot).next_free;
    return slot;
  }
  if (next_unused_ == blocks_.size() << kBlockShift) {
    // A slot index must fit its kSlotBits key bits, or it would spill into
    // seq and reorder events silently.  Blocks tile 2^kSlotBits exactly,
    // so the first index past the bound always starts a new block.
    static_assert((std::size_t{1} << kSlotBits) % kBlockSize == 0);
    if ((next_unused_ >> kSlotBits) != 0) {
      throw std::length_error(
          "Simulator: more than 2^" + std::to_string(kSlotBits) +
          " events pending at once (an event key holds a " +
          std::to_string(kSlotBits) + "-bit slot index)");
    }
    blocks_.push_back(std::make_unique<Slot[]>(kBlockSize));
  }
  return next_unused_++;
}

void Simulator::recycle_slot(std::uint32_t slot) {
  Slot& s = slot_ref(slot);
  s.live = false;
  s.cancelled = false;
  s.fn.reset();
  if (++s.generation == 0) s.generation = 1;  // 0 is the invalid-handle mark
  s.next_free = free_head_;
  free_head_ = slot;
}

// Both sifts percolate a hole instead of swapping: one write per level
// plus a final store, rather than three.

void Simulator::heap_push(HeapKey key) {
  std::size_t i = heap_.size();
  heap_.push_back(key);  // placeholder; overwritten below
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

void Simulator::heap_pop_root() {
  const HeapKey last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Bottom-up pop: percolate the hole to a leaf along the min-child path
  // without comparing against `last` (it came from the bottom, so it nearly
  // always belongs near a leaf), then sift it up the few levels it needs.
  // This trades an unpredictable break-branch per level for an ascend loop
  // that usually exits immediately; the child scans below are branchless.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first_child = i * kArity + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child = std::min(first_child + kArity, n);
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      best = before(heap_[c], heap_[best]) ? c : best;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(last, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = last;
}

void Simulator::drain(SimTime bound) {
  // Re-reading the root each iteration lets a callback's own schedules
  // and a nested run_until (which pops with an earlier bound) interleave
  // exactly as (time, seq) order says.
  while (!heap_.empty() && time_of(heap_[0]) <= bound) {
    const HeapKey root = heap_[0];
    const std::uint32_t slot = slot_of(root);
    Slot& s = slot_ref(slot);
    // Issue the (likely-cold) slot load now; the pop's sift-down is a
    // chain of dependent heap reads that hides the latency.
    PRECINCT_PREFETCH(&s);
    heap_pop_root();
    now_ = time_of(root);  // cancelled events still advance the clock
    if (s.cancelled) {
      recycle_slot(slot);
      continue;
    }
    // Fired: flip live *before* invoking so a self-cancel from inside the
    // callback is a no-op, then run the callback in place — block addresses
    // are stable, so rescheduling (arena growth) can't move the captures.
    s.live = false;
    ++executed_;
    s.fn();
    recycle_slot(slot);
    if (post_event_) post_event_();
  }
}

SimTime Simulator::next_event_time() const noexcept {
  return heap_.empty() ? std::numeric_limits<SimTime>::infinity()
                       : time_of(heap_[0]);
}

void Simulator::run_until(SimTime end_time) {
  drain(end_time);
  now_ = std::max(now_, end_time);
}

void Simulator::run_all() {
  drain(std::numeric_limits<double>::infinity());
}

}  // namespace precinct::sim
