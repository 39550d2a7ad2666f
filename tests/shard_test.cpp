// Region-sharded conservative parallel execution (DESIGN.md §11):
// barrier reuse, grid partitioning, executor ordering/determinism, and
// the ShardedScenario's shards-invariance contract.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <thread>
#include <vector>

#include "core/sharded_scenario.hpp"
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
  const geo::ShardPartition p = geo::partition_grid(5, 4, 3);
  EXPECT_EQ(p.n_shards, 3u);
  EXPECT_EQ(p.domains(), 20u);
  std::vector<int> seen(20, 0);
  for (std::uint32_t s = 0; s < p.n_shards; ++s) {
    for (const std::uint32_t d : p.members[s]) {
      EXPECT_EQ(p.shard_of[d], s);
      ++seen[d];
    }
  }
  for (const int count : seen) EXPECT_EQ(count, 1);
}

TEST(ShardPartition, BalancedWithinOneDomain) {
  for (const std::uint32_t k : {1u, 2u, 3u, 5u, 7u, 16u}) {
    const geo::ShardPartition p = geo::partition_grid(4, 4, k);
    std::size_t lo = p.members[0].size(), hi = lo;
    for (const auto& m : p.members) {
      lo = std::min(lo, m.size());
      hi = std::max(hi, m.size());
    }
    EXPECT_LE(hi - lo, 1u) << "k=" << k;
  }
}

TEST(ShardPartition, ContiguousRunsInRowMajorOrder) {
  const geo::ShardPartition p = geo::partition_grid(6, 6, 4);
  for (std::size_t d = 1; d < p.shard_of.size(); ++d) {
    // Shard ids are non-decreasing along row-major order — each shard is
    // one contiguous run.
    EXPECT_LE(p.shard_of[d - 1], p.shard_of[d]);
  }
}

TEST(ShardPartition, ClampsShardCountToDomains) {
  const geo::ShardPartition p = geo::partition_grid(2, 1, 8);
  EXPECT_EQ(p.n_shards, 2u);
  EXPECT_THROW((void)geo::partition_grid(0, 3, 1), std::invalid_argument);
}

TEST(ShardPartition, ContiguousCutsNoMoreThanRoundRobin) {
  const std::uint32_t nx = 8, ny = 8, k = 4;
  const geo::ShardPartition p = geo::partition_grid(nx, ny, k);
  std::vector<std::uint32_t> round_robin(nx * ny);
  for (std::uint32_t i = 0; i < nx * ny; ++i) round_robin[i] = i % k;
  EXPECT_LE(geo::cut_edges(nx, ny, p.shard_of),
            geo::cut_edges(nx, ny, round_robin));
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

// ---- core::ShardedScenario ------------------------------------------------

core::PrecinctConfig small_world() {
  core::PrecinctConfig c;
  c.n_nodes = 24;
  c.tiles_x = c.tiles_y = 2;
  c.gateway_interval_s = 3.0;
  c.gateway_latency_s = 0.25;
  c.warmup_s = 5.0;
  c.measure_s = 20.0;
  c.mean_request_interval_s = 6.0;
  c.seed = 99;
  return c;
}

TEST(ShardedScenario, FingerprintInvariantAcrossShardCounts) {
  std::string baseline;
  for (const std::uint32_t k : {1u, 2u, 4u}) {
    core::PrecinctConfig c = small_world();
    c.shards = k;
    const core::ShardedMetrics m = core::run_sharded_scenario(c);
    const std::string fp = core::sharded_fingerprint(m);
    if (k == 1) {
      baseline = fp;
      EXPECT_GT(m.gateway_requests, 0u) << "gateway streams never fired";
      EXPECT_GT(m.gateway_acks, 0u);
      EXPECT_GT(m.messages_merged, 0u);
      EXPECT_GT(m.aggregate.requests_issued, 0u);
    } else {
      EXPECT_EQ(fp, baseline) << "shards=" << k << " diverged";
    }
  }
}

TEST(ShardedScenario, PerShardInvariantCheckerHoldsUnderSharding) {
  core::PrecinctConfig c = small_world();
  c.shards = 2;
  c.check = "all";  // every tile runs its own InvariantChecker
  c.check_stride = 16;
  const core::ShardedMetrics checked = core::run_sharded_scenario(c);
  c.check.clear();
  const core::ShardedMetrics plain = core::run_sharded_scenario(c);
  // The checker is observe-only: enabling it must not change results.
  EXPECT_EQ(core::sharded_fingerprint(checked),
            core::sharded_fingerprint(plain));
}

TEST(ShardedScenario, GatewayTrafficIsAccountedInTileStats) {
  core::PrecinctConfig c = small_world();
  c.gateway_interval_s = 1.0;  // dense gateway traffic
  const core::ShardedMetrics m = core::run_sharded_scenario(c);
  EXPECT_GT(m.gateway_requests, 0u);
  EXPECT_GE(m.gateway_requests, m.gateway_served);
  EXPECT_GE(m.gateway_served, m.gateway_acks);
  // Every ack closes a round trip of >= 2 * gateway latency.
  if (m.gateway_acks > 0) {
    EXPECT_GE(m.gateway_rtt_sum_s,
              2.0 * c.gateway_latency_s * static_cast<double>(m.gateway_acks));
  }
  // The world ran 4 tiles: per-tile metrics exist and sum into aggregate.
  ASSERT_EQ(m.per_tile.size(), 4u);
  std::uint64_t issued = 0;
  for (const auto& t : m.per_tile) issued += t.requests_issued;
  EXPECT_EQ(issued, m.aggregate.requests_issued);
}

TEST(ShardedScenario, SingleTileMatchesPlainScenario) {
  // A 1x1 tile world with no gateway traffic is the plain scenario run
  // through the windowed executor: same seed derivation, so the per-tile
  // fingerprint must equal a direct Scenario run of the tile config.
  core::PrecinctConfig c = small_world();
  c.tiles_x = c.tiles_y = 1;
  c.gateway_interval_s = 0.0;
  const core::ShardedMetrics sharded = core::run_sharded_scenario(c);
  ASSERT_EQ(sharded.per_tile.size(), 1u);

  core::PrecinctConfig tile = c;
  tile.seed =
      support::hash_combine(support::hash_combine(c.seed, 0x715e), 0);
  tile.tiles_x = tile.tiles_y = 1;
  const core::Metrics direct = core::run_scenario(tile);
  EXPECT_EQ(core::fingerprint(sharded.per_tile[0]), core::fingerprint(direct));
}

}  // namespace
