#include "sim/shard_exec.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>

namespace precinct::sim {

double next_window_end(double window_end, double next_due, double lookahead,
                       double phase_end) noexcept {
  // Nothing due inside the phase: only the phase's last window is left.
  if (next_due >= phase_end) return phase_end;
  double t = window_end;
  do {
    t = std::min(t + lookahead, phase_end);
  } while (t < next_due);
  return t;
}

ShardExecutor::ShardExecutor(std::vector<Simulator*> domains,
                             std::vector<std::uint32_t> shard_of,
                             const Options& options)
    : domains_(std::move(domains)),
      shard_of_(std::move(shard_of)),
      n_shards_(options.n_shards == 0 ? 1 : options.n_shards),
      lookahead_(options.lookahead_s),
      barrier_(options.n_shards == 0 ? 1 : options.n_shards) {
  if (domains_.empty()) {
    throw std::invalid_argument("ShardExecutor: no domains");
  }
  if (shard_of_.size() != domains_.size()) {
    throw std::invalid_argument("ShardExecutor: shard_of size mismatch");
  }
  if (!(lookahead_ > 0.0)) {
    throw std::invalid_argument("ShardExecutor: lookahead must be > 0");
  }
  shard_members_.resize(n_shards_);
  for (std::size_t d = 0; d < shard_of_.size(); ++d) {
    if (shard_of_[d] >= n_shards_) {
      throw std::invalid_argument("ShardExecutor: shard index out of range");
    }
    shard_members_[shard_of_[d]].push_back(static_cast<std::uint32_t>(d));
  }
  mailboxes_.resize(2 * domains_.size() * domains_.size());
  merge_scratch_.resize(n_shards_);
  shards_.resize(n_shards_);
  bounds_.resize(2 * static_cast<std::size_t>(n_shards_));
}

void ShardExecutor::post(std::uint32_t src, std::uint32_t dst, double due,
                         EventCallback fn) {
  if (src >= domains_.size() || dst >= domains_.size()) {
    throw std::out_of_range("ShardExecutor::post: domain out of range");
  }
  ShardState& shard = shards_[shard_of_[src]];
  // Conservative lookahead bound: a message produced inside a window is
  // merged at its end, so it must not be due before that end or the
  // destination would receive it in its past.
  if (due < shard.window_end) {
    throw std::logic_error(
        "ShardExecutor::post: due " + std::to_string(due) +
        " violates conservative lookahead (window end " +
        std::to_string(shard.window_end) + ")");
  }
  shard.posted_min = std::min(shard.posted_min, due);
  mailbox(shard.windows, src, dst).push(due, src, std::move(fn));
}

void ShardExecutor::merge_shard(std::uint32_t shard, std::uint64_t window) {
  std::vector<CrossShardMsg>& scratch = merge_scratch_[shard];
  for (const std::uint32_t dst : shard_members_[shard]) {
    scratch.clear();
    for (std::uint32_t src = 0; src < domains_.size(); ++src) {
      mailbox(window, src, dst).drain_into(scratch);
    }
    if (scratch.empty()) continue;
    // Total order on (due, src, seq): seq is unique per (src, dst)
    // mailbox, so the key is unique and the merge order is independent
    // of which thread produced or drains the messages.
    std::sort(scratch.begin(), scratch.end(),
              [](const CrossShardMsg& a, const CrossShardMsg& b) {
                return std::tie(a.due, a.src_domain, a.seq) <
                       std::tie(b.due, b.src_domain, b.seq);
              });
    shards_[shard].merged += scratch.size();
    for (CrossShardMsg& m : scratch) {
      domains_[dst]->schedule_at(m.due, std::move(m.fn));
    }
    scratch.clear();
  }
}

void ShardExecutor::shard_loop(std::uint32_t shard, double end_time) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ShardState& self = shards_[shard];
  // The phase's first window always runs: whatever the caller scheduled
  // since the last run_until (measurement start, setup mail) was never
  // published at a barrier.
  double window_end = next_window_end(now_, -kInf, lookahead_, end_time);
  bool failed = false;
  for (;;) {
    const std::uint64_t window = ++self.windows;
    self.window_end = window_end;
    self.posted_min = kInf;
    double next_due = kInf;
    if (!failed) {
      try {
        for (const std::uint32_t d : shard_members_[shard]) {
          domains_[d]->run_until(window_end);
          next_due = std::min(next_due, domains_[d]->next_event_time());
        }
      } catch (...) {
        self.error = std::current_exception();
        failed = true;
      }
    }
    // Publish, cross the window's one barrier, then read every shard's
    // bound.  Bounds of this parity are rewritten two windows from now,
    // after the next barrier — by then every shard has read these.
    const std::size_t parity = (window & 1) * n_shards_;
    bounds_[parity + shard] = Bound{std::min(next_due, self.posted_min),
                                    failed};
    barrier_.arrive_and_wait();
    double agreed = kInf;
    bool any_failed = false;
    for (std::uint32_t s = 0; s < n_shards_; ++s) {
      agreed = std::min(agreed, bounds_[parity + s].next_due);
      any_failed = any_failed || bounds_[parity + s].failed;
    }
    if (any_failed) return;  // every shard read the same flags: all stop
    try {
      merge_shard(shard, window);
    } catch (...) {
      // Published at the next barrier, which stops every shard.
      self.error = std::current_exception();
      failed = true;
    }
    if (window_end >= end_time) return;
    window_end = next_window_end(window_end, agreed, lookahead_, end_time);
  }
}

void ShardExecutor::run_until(double end_time) {
  if (end_time <= now_) return;

  // Deliver mail posted while idle (setup traffic) before the first
  // window, so a pre-run post() behaves like a merge at t = now.  Idle
  // posts went to the parity of the last window run, already drained.
  for (std::uint32_t s = 0; s < n_shards_; ++s) {
    merge_shard(s, shards_[s].windows);
  }

  std::vector<std::thread> cohort;
  cohort.reserve(n_shards_ - 1);
  for (std::uint32_t s = 1; s < n_shards_; ++s) {
    cohort.emplace_back([this, s, end_time] { shard_loop(s, end_time); });
  }
  shard_loop(0, end_time);
  for (std::thread& t : cohort) t.join();

  std::exception_ptr error;
  for (ShardState& s : shards_) {
    if (!error) error = s.error;
    s.error = nullptr;
  }
  if (error) std::rethrow_exception(error);

  now_ = end_time;
  windows_ = shards_[0].windows;
  messages_merged_ = 0;
  for (ShardState& s : shards_) {
    messages_merged_ += s.merged;
    s.window_end = now_;
  }
}

}  // namespace precinct::sim
