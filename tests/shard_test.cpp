// Region-sharded conservative parallel execution (DESIGN.md §11):
// barrier reuse, domain partitioning, and executor ordering/determinism.
// The world-sharded scenario built on top is tested in
// world_shard_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <thread>
#include <vector>

#include "geo/shard_partition.hpp"
#include "sim/shard_exec.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace precinct;

// ---- support::Barrier -----------------------------------------------------

TEST(Barrier, ReusedAcrossManyCycles) {
  constexpr std::size_t kParties = 4;
  constexpr int kCycles = 200;
  support::Barrier barrier(kParties);
  std::atomic<int> entered{0};
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (std::size_t p = 0; p < kParties; ++p) {
    threads.emplace_back([&] {
      for (int c = 0; c < kCycles; ++c) {
        entered.fetch_add(1);
        barrier.arrive_and_wait();
        // After the barrier every party of this cycle has entered: the
        // counter must be at least (c+1)*parties even if some parties
        // raced ahead into the next cycle.
        if (entered.load() < static_cast<int>((c + 1) * kParties)) {
          failed.store(true);
        }
        barrier.arrive_and_wait();  // second barrier separates cycles
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(barrier.cycles(), 2 * kCycles);
  EXPECT_EQ(barrier.parties(), kParties);
}

TEST(Barrier, SinglePartyNeverBlocks) {
  support::Barrier barrier(1);
  for (int i = 0; i < 10; ++i) barrier.arrive_and_wait();
  EXPECT_EQ(barrier.cycles(), 10u);
}

// ---- geo::partition_grid --------------------------------------------------

TEST(ShardPartition, CoversEveryDomainExactlyOnce) {
  const geo::ShardPartition p = geo::partition_grid(20, 3);
  EXPECT_EQ(p.n_shards, 3u);
  EXPECT_EQ(p.shard_of.size(), 20u);
  std::vector<int> per_shard(p.n_shards, 0);
  for (const std::uint32_t s : p.shard_of) {
    ASSERT_LT(s, p.n_shards);
    ++per_shard[s];
  }
  for (const int count : per_shard) EXPECT_GT(count, 0);
}

TEST(ShardPartition, BalancedWithinOneDomain) {
  for (const std::uint32_t k : {1u, 2u, 3u, 5u, 7u, 16u}) {
    const geo::ShardPartition p = geo::partition_grid(16, k);
    std::vector<std::size_t> per_shard(p.n_shards, 0);
    for (const std::uint32_t s : p.shard_of) ++per_shard[s];
    const auto [lo, hi] =
        std::minmax_element(per_shard.begin(), per_shard.end());
    EXPECT_LE(*hi - *lo, 1u) << "k=" << k;
  }
}

TEST(ShardPartition, ContiguousRunsInRowMajorOrder) {
  const geo::ShardPartition p = geo::partition_grid(36, 4);
  for (std::size_t d = 1; d < p.shard_of.size(); ++d) {
    // Shard ids are non-decreasing along the column order — each shard
    // is one contiguous run of neighboring strips.
    EXPECT_LE(p.shard_of[d - 1], p.shard_of[d]);
  }
}

TEST(ShardPartition, ClampsShardCountToDomains) {
  const geo::ShardPartition p = geo::partition_grid(2, 8);
  EXPECT_EQ(p.n_shards, 2u);
  EXPECT_THROW((void)geo::partition_grid(0, 1), std::invalid_argument);
}

// ---- sim::ShardExecutor ---------------------------------------------------

/// Toy domain fixture: N simulators, an executor over them, and a shared
/// per-domain log of (time, tag) pairs appended by merged messages.
struct ExecWorld {
  explicit ExecWorld(std::size_t n_domains, std::uint32_t n_shards,
                     double lookahead = 0.5) {
    logs.resize(n_domains);
    std::vector<sim::Simulator*> ptrs;
    std::vector<std::uint32_t> shard_of;
    for (std::size_t d = 0; d < n_domains; ++d) {
      ptrs.push_back(&sims.emplace_back());
      shard_of.push_back(static_cast<std::uint32_t>(d % n_shards));
    }
    sim::ShardExecutor::Options opts;
    opts.n_shards = n_shards;
    opts.lookahead_s = lookahead;
    exec = std::make_unique<sim::ShardExecutor>(ptrs, shard_of, opts);
  }
  std::deque<sim::Simulator> sims;  // deque: stable addresses, no moves
  std::vector<std::vector<std::pair<double, int>>> logs;
  std::unique_ptr<sim::ShardExecutor> exec;
};

TEST(ShardExecutor, MergesSameTimestampBurstInSrcSeqOrder) {
  // Domains 1 and 2 both post bursts to domain 0, all due at the same
  // instant.  The merge order must be (due, src, seq) regardless of which
  // thread drained what: src 1's messages first (in post order), then
  // src 2's.
  for (const std::uint32_t k : {1u, 3u}) {
    ExecWorld w(3, k);
    auto& log = w.logs[0];
    const double due = 1.0;  // >= first window end (0.5): conservative
    for (int i = 0; i < 4; ++i) {
      w.sims[1].schedule(0.1, [&w, i, due] {
        w.exec->post(1, 0, due, [&w, i, due] {
          w.logs[0].emplace_back(w.sims[0].now(), 100 + i);
        });
      });
      w.sims[2].schedule(0.1, [&w, i, due] {
        w.exec->post(2, 0, due, [&w, i, due] {
          w.logs[0].emplace_back(w.sims[0].now(), 200 + i);
        });
      });
    }
    w.exec->run_until(2.0);
    ASSERT_EQ(log.size(), 8u) << "k=" << k;
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(log[i].second, 100 + i);      // src 1 first, seq order
      EXPECT_EQ(log[4 + i].second, 200 + i);  // then src 2
      EXPECT_DOUBLE_EQ(log[i].first, due);
    }
    EXPECT_EQ(w.exec->messages_merged(), 8u);
  }
}

TEST(ShardExecutor, WindowCadenceIndependentOfShardCount) {
  // Grid ends every 0.25 s up to 3.0: 12 fixed-cadence windows.  Work:
  // local events at 0.1 (domain 0), 1.1 (domain 2, which posts to domain
  // 1 due 1.6), 1.2 (domain 3) and 2.0 (domain 1, exactly on a grid end).
  // Kept: 0.25 (a phase's first window always runs), 1.25 (1.1 and 1.2),
  // 1.75 (the mail due 1.6), 2.0, and 3.0 (a phase's last window always
  // runs) — 5 of the 12, whatever the shard count.
  for (const std::uint32_t k : {1u, 2u, 4u}) {
    ExecWorld w(4, k, 0.25);
    const auto log_at = [&w](std::uint32_t d, double t, int tag) {
      w.sims[d].schedule_at(t, [&w, d, tag] {
        w.logs[d].emplace_back(w.sims[d].now(), tag);
      });
    };
    log_at(0, 0.1, 0);
    log_at(3, 1.2, 3);
    log_at(1, 2.0, 1);
    w.sims[2].schedule_at(1.1, [&w] {
      w.logs[2].emplace_back(w.sims[2].now(), 2);
      w.exec->post(2, 1, 1.6, [&w] {
        w.logs[1].emplace_back(w.sims[1].now(), 21);
      });
    });
    w.exec->run_until(3.0);
    EXPECT_EQ(w.exec->windows(), 5u) << "k=" << k;
    EXPECT_DOUBLE_EQ(w.exec->now(), 3.0);
    EXPECT_EQ(w.exec->messages_merged(), 1u);
    // Skipping moved no event: each ran at its own time, the mail at its
    // due, ahead of domain 1's local event at 2.0.
    using Log = std::vector<std::pair<double, int>>;
    EXPECT_EQ(w.logs[0], (Log{{0.1, 0}})) << "k=" << k;
    EXPECT_EQ(w.logs[1], (Log{{1.6, 21}, {2.0, 1}})) << "k=" << k;
    EXPECT_EQ(w.logs[2], (Log{{1.1, 2}})) << "k=" << k;
    EXPECT_EQ(w.logs[3], (Log{{1.2, 3}})) << "k=" << k;
  }

  // Kept windows still end on the grid, so the conservative bound is the
  // grid end: an event at 2.1 runs in the window ending 2.25, which
  // admits a post due 2.25 and rejects one due 2.2.
  for (const std::uint32_t k : {1u, 2u}) {
    ExecWorld ok(2, k, 0.25);
    ok.sims[0].schedule_at(2.1, [&ok] { ok.exec->post(0, 1, 2.25, [] {}); });
    EXPECT_NO_THROW(ok.exec->run_until(3.0)) << "k=" << k;
    EXPECT_EQ(ok.exec->windows(), 4u) << "k=" << k;  // 0.25 2.25 2.5 3.0

    ExecWorld bad(2, k, 0.25);
    bad.sims[0].schedule_at(2.1, [&bad] { bad.exec->post(0, 1, 2.2, [] {}); });
    EXPECT_THROW(bad.exec->run_until(3.0), std::logic_error) << "k=" << k;
  }
}

TEST(ShardExecutor, RelayChainCrossesShardsDeterministically) {
  // A message relay 0 -> 1 -> 2 -> 3 -> 0 ... : each hop re-posts with
  // +lookahead latency.  The number of completed hops by a fixed horizon
  // must not depend on K.
  std::vector<int> hops_by_k;
  for (const std::uint32_t k : {1u, 2u, 4u}) {
    auto w = std::make_shared<ExecWorld>(4, k, 0.5);
    auto hops = std::make_shared<int>(0);
    // std::function-based relay so it can capture itself.
    auto relay = std::make_shared<std::function<void(std::uint32_t)>>();
    *relay = [w, hops, relay](std::uint32_t at) {
      ++*hops;
      const std::uint32_t next = (at + 1) % 4;
      const double due = w->sims[at].now() + 0.5;
      w->exec->post(at, next, due, [relay, next] { (*relay)(next); });
    };
    w->exec->post(0, 1, 0.5, [relay] { (*relay)(1); });
    w->exec->run_until(10.0);
    hops_by_k.push_back(*hops);
    EXPECT_GT(*hops, 5) << "relay never got going";
    // The relay holds itself and `w`, whose last pending hop holds the
    // relay: clear it so the cycle, and with it the world, is freed.
    *relay = nullptr;
  }
  EXPECT_EQ(hops_by_k[0], hops_by_k[1]);
  EXPECT_EQ(hops_by_k[0], hops_by_k[2]);
}

TEST(ShardExecutor, RejectsConservativeViolation) {
  ExecWorld w(2, 2, 0.5);
  // Post from inside domain 0's compute phase with a due time before the
  // current window's end: the lookahead contract is violated and the
  // executor must throw rather than silently time-travel.
  w.sims[0].schedule(0.1, [&w] {
    w.exec->post(0, 1, 0.2, [] {});  // window end is 0.5
  });
  EXPECT_THROW(w.exec->run_until(1.0), std::logic_error);
}

TEST(ShardExecutor, RejectsBadConstruction) {
  sim::Simulator s;
  std::vector<sim::Simulator*> one{&s};
  sim::ShardExecutor::Options opts;
  opts.n_shards = 1;
  opts.lookahead_s = 0.0;  // lookahead must be positive
  EXPECT_THROW(sim::ShardExecutor(one, {0}, opts), std::invalid_argument);
  opts.lookahead_s = 0.5;
  EXPECT_THROW(sim::ShardExecutor(one, {0, 0}, opts), std::invalid_argument);
  EXPECT_THROW(sim::ShardExecutor(one, {5}, opts), std::invalid_argument);
}

}  // namespace
