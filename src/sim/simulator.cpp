#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <limits>

#if defined(__GNUC__) || defined(__clang__)
#define PRECINCT_PREFETCH(addr) __builtin_prefetch(addr)
#else
#define PRECINCT_PREFETCH(addr) ((void)0)
#endif

namespace precinct::sim {

EventHandle Simulator::schedule_impl(SimTime when, EventCallback&& fn) {
  assert(fn);
  const std::uint32_t slot = alloc_slot();
  Slot& s = slot_ref(slot);
  s.live = true;
  s.cancelled = false;
  s.fn = std::move(fn);
  assert(next_seq_ < (std::uint64_t{1} << (64 - kSlotBits)));
  heap_push(HeapEntry{when, (next_seq_++ << kSlotBits) | slot});
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
    blocks_.push_back(std::make_unique<Slot[]>(kBlockSize));
  }
  assert(next_unused_ < kSlotMask);
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

void Simulator::reserve(std::size_t n) {
  heap_.reserve(n);
  while (blocks_.size() << kBlockShift < n) {
    blocks_.push_back(std::make_unique<Slot[]>(kBlockSize));
  }
}

// Both sifts percolate a hole instead of swapping: one write per level
// plus a final store, rather than three.

void Simulator::heap_push(HeapEntry entry) {
  std::size_t i = heap_.size();
  heap_.push_back(entry);  // placeholder; overwritten below
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void Simulator::heap_pop_root() {
  const HeapEntry last = heap_.back();
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

// Floyd heapify: sift each internal node down, leaves upward.  O(n), used
// once per refill on the not-yet-ready remainder.
void Simulator::heapify() {
  const std::size_t n = heap_.size();
  if (n < 2) return;
  for (std::size_t i = (n - 2) / kArity + 1; i-- > 0;) {
    const HeapEntry e = heap_[i];
    std::size_t hole = i;
    for (;;) {
      const std::size_t first_child = hole * kArity + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t last_child = std::min(first_child + kArity, n);
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        best = before(heap_[c], heap_[best]) ? c : best;
      }
      if (!before(heap_[best], e)) break;
      heap_[hole] = heap_[best];
      hole = best;
    }
    heap_[hole] = e;
  }
}

// Bucket sort run_ by (time, key).  Times are non-negative doubles, whose
// IEEE bit patterns compare like unsigned integers, so a linear map of the
// bit range spreads entries across ~2n buckets; a stable counting scatter
// plus an insertion-sort finish (elements only move within one bucket)
// orders the batch in O(n) expected time.  Skewed distributions (some
// bucket > 64 entries) and all-equal times fall back to std::sort.  The
// sort algorithm never affects the result: before() is a strict total
// order (seq is unique), so every path produces the same permutation.
void Simulator::sort_run() {
  const std::size_t n = run_.size();
  if (n < 2) return;
  const auto time_bits = [](SimTime t) noexcept {
    std::uint64_t u;
    std::memcpy(&u, &t, sizeof(u));
    return u;
  };
  const auto cmp = [](const HeapEntry& a, const HeapEntry& b) noexcept {
    return before(a, b);
  };
  std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
  for (const HeapEntry& e : run_) {
    const std::uint64_t t = time_bits(e.time);
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  if (lo == hi) {  // all ties: order is insertion order, via the key compare
    std::sort(run_.begin(), run_.end(), cmp);
    return;
  }
  const std::uint64_t span = hi - lo;
  const unsigned bucket_bits = std::bit_width(n);  // ~2n buckets
  const std::uint32_t n_buckets = 1u << bucket_bits;
  const int shift = 64 - std::countl_zero(span) - static_cast<int>(bucket_bits);
  const auto bucket = [&](SimTime t) noexcept {
    const std::uint64_t d = time_bits(t) - lo;
    const std::uint64_t b = shift >= 0 ? (d >> shift) : (d << -shift);
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(b, n_buckets - 1));
  };
  bucket_hist_.assign(n_buckets + 1, 0);
  for (const HeapEntry& e : run_) ++bucket_hist_[bucket(e.time) + 1];
  std::uint32_t max_bucket = 0;
  for (std::uint32_t b = 1; b <= n_buckets; ++b) {
    max_bucket = std::max(max_bucket, bucket_hist_[b]);
    bucket_hist_[b] += bucket_hist_[b - 1];
  }
  if (max_bucket > 64) {
    std::sort(run_.begin(), run_.end(), cmp);
    return;
  }
  sort_scratch_.resize(n);
  for (const HeapEntry& e : run_) {
    sort_scratch_[bucket_hist_[bucket(e.time)]++] = e;
  }
  for (std::size_t i = 1; i < n; ++i) {
    const HeapEntry e = sort_scratch_[i];
    std::size_t j = i;
    while (j > 0 && before(e, sort_scratch_[j - 1])) {
      sort_scratch_[j] = sort_scratch_[j - 1];
      --j;
    }
    sort_scratch_[j] = e;
  }
  run_.swap(sort_scratch_);
}

// Due entries form a subtree hanging from the root (a due entry's parent
// orders no later, so it is due too), so a DFS over that subtree counts
// them in O(due) reads however large the heap is.  Every stacked index is
// already counted, so the stack never outgrows the kBatchMin cap.
std::size_t Simulator::count_due(SimTime bound) const noexcept {
  if (heap_.empty() || heap_[0].time > bound) return 0;
  std::size_t stack[kBatchMin];
  std::size_t top = 0;
  stack[top++] = 0;
  std::size_t found = 1;
  while (top > 0 && found < kBatchMin) {
    const std::size_t first_child = stack[--top] * kArity + 1;
    const std::size_t last_child =
        std::min(first_child + kArity, heap_.size());
    for (std::size_t c = first_child; c < last_child && found < kBatchMin;
         ++c) {
      if (heap_[c].time <= bound) {
        stack[top++] = c;
        ++found;
      }
    }
  }
  return found;
}

// Move every ready entry (time <= bound) out of the heap into run_, sorted;
// restore the heap property on the remainder.  Cost is O(heap) per refill,
// so drain() calls it only once count_due() has found kBatchMin due
// entries: a large batch (a run_until over a whole scenario readies most of
// the heap at once) amortizes the scan, while a shard window that readies
// two events of an 800-entry heap pops them from the heap directly.
void Simulator::refill_run(SimTime bound) {
  std::size_t keep = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const HeapEntry e = heap_[i];
    if (e.time <= bound) {
      run_.push_back(e);
    } else {
      heap_[keep++] = e;
    }
  }
  heap_.resize(keep);
  heapify();
  sort_run();
}

void Simulator::drain(SimTime bound) {
  rescan_seq_ = 0;  // a count taken under another bound says nothing here
  for (;;) {
    if (run_pos_ == run_.size()) {
      run_.clear();
      run_pos_ = 0;
      if (heap_.size() >= kBatchMin && heap_[0].time <= bound &&
          next_seq_ >= rescan_seq_) {
        const std::size_t due = count_due(bound);
        if (due == kBatchMin) {
          refill_run(bound);
        } else {
          rescan_seq_ = next_seq_ + (kBatchMin - due);
        }
      }
    }
    // A nested run_until with an earlier bound must not consume later run_
    // entries, hence the time check on the run front as well.
    const bool have_run =
        run_pos_ < run_.size() && run_[run_pos_].time <= bound;
    const bool have_heap = !heap_.empty() && heap_[0].time <= bound;
    HeapEntry e;
    bool from_run;
    if (have_run && (!have_heap || before(run_[run_pos_], heap_[0]))) {
      e = run_[run_pos_];
      from_run = true;
    } else if (have_heap) {
      e = heap_[0];
      from_run = false;
    } else {
      break;
    }
    const std::uint32_t slot = static_cast<std::uint32_t>(e.key) & kSlotMask;
    Slot& s = slot_ref(slot);
    if (from_run) {
      ++run_pos_;
      if (run_pos_ + 8 < run_.size()) {
        // Sequential consumption makes upcoming slots predictable: issue
        // the load for the slot eight events ahead to hide its latency.
        PRECINCT_PREFETCH(
            &slot_ref(static_cast<std::uint32_t>(run_[run_pos_ + 8].key) &
                      kSlotMask));
      }
    } else {
      // Issue the (likely-cold) slot load now; the pop's sift-down is a
      // chain of dependent heap reads that hides the latency.
      PRECINCT_PREFETCH(&s);
      heap_pop_root();
    }
    now_ = e.time;  // cancelled events still advance the clock
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
  rescan_seq_ = 0;  // an enclosing drain's bound may differ
}

SimTime Simulator::next_event_time() const noexcept {
  SimTime t = std::numeric_limits<SimTime>::infinity();
  if (run_pos_ < run_.size()) t = run_[run_pos_].time;
  if (!heap_.empty()) t = std::min(t, heap_[0].time);
  return t;
}

void Simulator::run_until(SimTime end_time) {
  drain(end_time);
  now_ = std::max(now_, end_time);
}

void Simulator::run_all() {
  drain(std::numeric_limits<double>::infinity());
}

}  // namespace precinct::sim
