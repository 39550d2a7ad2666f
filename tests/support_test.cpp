// Unit tests for support: RNG determinism and distributions, streaming
// statistics, thread pool, usable CPUs, table formatting, key=value files
// and the config value parsers.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "core/config_io.hpp"
#include "support/json.hpp"
#include "support/kv_file.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "test_util.hpp"

namespace {

using namespace precinct::support;
namespace core = precinct::core;

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.bits(), b.bits());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.bits() == b.bits()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntRespectsBound) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values reachable
}

TEST(Rng, UniformMeanConverges) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(13);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(30.0);
  EXPECT_NEAR(sum / kN, 30.0, 0.5);
}

TEST(Rng, ExponentialIsNonNegative) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.exponential(1.0), 0.0);
  }
}

TEST(Rng, SplitStreamsAreIndependent) {
  const Rng root(99);
  Rng a = root.split(1);
  Rng b = root.split(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.bits() == b.bits()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, SplitSameIdSameStream) {
  const Rng root(99);
  Rng a = root.split(5);
  Rng b = root.split(5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.bits(), b.bits());
}

TEST(Hash64, DifferentInputsDiffer) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 1000; ++i) outputs.insert(hash64(i));
  EXPECT_EQ(outputs.size(), 1000u);
}

TEST(Hash64, Deterministic) {
  EXPECT_EQ(hash64(12345), hash64(12345));
  EXPECT_EQ(hash_combine(1, 2), hash_combine(1, 2));
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(4.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 4.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 4.0);
  EXPECT_EQ(s.max(), 4.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all, left, right;
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-10, 10);
    all.add(x);
    (i % 2 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(QuantileSampler, Quantiles) {
  QuantileSampler q;
  for (int i = 100; i >= 1; --i) q.add(i);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 100.0);
  EXPECT_NEAR(q.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(q.quantile(0.9), 90.0, 1.0);
}

TEST(QuantileSampler, MergeCombinesSamples) {
  QuantileSampler a, b;
  for (int i = 1; i <= 50; ++i) a.add(i);
  (void)a.quantile(0.5);  // force a sort, then merge must re-sort
  for (int i = 51; i <= 100; ++i) b.add(i);
  a.merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_NEAR(a.quantile(0.5), 50.0, 1.0);
  EXPECT_DOUBLE_EQ(a.quantile(1.0), 100.0);
}

TEST(QuantileSampler, EmptyReturnsZero) {
  QuantileSampler q;
  EXPECT_EQ(q.quantile(0.5), 0.0);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&count] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ParallelFor, CoversAllIndices) {
  std::vector<std::atomic<int>> hits(64);
  parallel_for(64, [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroAndOne) {
  parallel_for(0, [](std::size_t) { FAIL(); });
  int calls = 0;
  parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, RethrowsFirstError) {
  EXPECT_THROW(
      parallel_for(16, [](std::size_t i) {
        if (i == 7) throw std::logic_error("x");
      }),
      std::logic_error);
}

TEST(ParallelFor, NestedCallsCompleteWithoutDeadlock) {
  // Outer points fan inner replications into the same global pool, the
  // run_sweep-over-run_seeds shape.  Inner calls run inline on their worker
  // (or caller) while idle workers steal shares, so every (i, j) pair must
  // execute exactly once and no thread may block forever.
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  parallel_for(kOuter, [&](std::size_t i) {
    parallel_for(kInner, [&, i](std::size_t j) { ++hits[i * kInner + j]; });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, NestedErrorPropagatesToOuterCaller) {
  EXPECT_THROW(parallel_for(4,
                            [](std::size_t i) {
                              parallel_for(4, [i](std::size_t j) {
                                if (i == 2 && j == 3) {
                                  throw std::runtime_error("inner");
                                }
                              });
                            }),
               std::runtime_error);
}

TEST(ParallelFor, ReusesGlobalPoolAcrossCalls) {
  // The process-wide pool persists between calls; repeated fan-outs must
  // not spawn threads per call or lose coverage.
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    parallel_for(32, [&](std::size_t) { ++count; });
    ASSERT_EQ(count.load(), 32);
  }
}

TEST(ThreadPool, InWorkerDetectsPoolThreads) {
  EXPECT_FALSE(ThreadPool::in_worker());
  auto fut = ThreadPool::global().submit(
      [] { EXPECT_TRUE(ThreadPool::in_worker()); });
  fut.get();
}

TEST(UsableCpus, CountsTheAffinityMaskAndNeverZero) {
  const std::size_t all = usable_cpus();
  EXPECT_GE(all, 1u);
  {
    const precinct::test_util::OneCpuAffinity pin;
    EXPECT_EQ(usable_cpus(), 1u);  // what `taskset -c 0` would report
  }
  EXPECT_EQ(usable_cpus(), all);  // the mask is restored
}

TEST(Table, FormatsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1.5"});
  t.add_row({"beta", "22.25"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22.25"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(KvFile, ParsesKeysCommentsAndWhitespace) {
  const auto kv = KvFile::parse(
      "# header comment\n"
      "  nodes = 80  \n"
      "policy= gd-ld # trailing comment\n"
      "\n"
      "cache =0.02\n");
  EXPECT_EQ(kv.size(), 3u);
  EXPECT_EQ(kv.get("policy"), "gd-ld");
  EXPECT_DOUBLE_EQ(core::parse_number(*kv.get("nodes"), "nodes"), 80.0);
  EXPECT_DOUBLE_EQ(core::parse_number(*kv.get("cache"), "cache"), 0.02);
  EXPECT_FALSE(kv.has("missing"));
  EXPECT_EQ(kv.get("missing"), std::nullopt);
}

TEST(KvFile, LastDuplicateWins) {
  const auto kv = KvFile::parse("a = 1\na = 2\n");
  EXPECT_DOUBLE_EQ(core::parse_number(*kv.get("a"), "a"), 2.0);
}

TEST(KvFile, Booleans) {
  for (const char* yes : {"true", "1", "yes", "on"}) {
    EXPECT_TRUE(core::parse_bool(yes, "b")) << yes;
  }
  for (const char* no : {"false", "0", "no", "off"}) {
    EXPECT_FALSE(core::parse_bool(no, "b")) << no;
  }
}

TEST(KvFile, MalformedInputThrows) {
  EXPECT_THROW(KvFile::parse("just-some-words\n"), std::invalid_argument);
  EXPECT_THROW(KvFile::parse("= value\n"), std::invalid_argument);
  // Values the parsers refuse, each naming its key.
  const struct {
    const char* value;
    bool boolean;
  } rejected[] = {{"abc", false},   {"", false},    {"1.5x", false},
                  {"nan", false},   {"inf", false}, {"1e999", false},
                  {"perhaps", true}, {"", true},    {"TRUE", true}};
  for (const auto& r : rejected) {
    try {
      if (r.boolean) {
        (void)core::parse_bool(r.value, "k");
      } else {
        (void)core::parse_number(r.value, "k");
      }
      ADD_FAILURE() << "'" << r.value << "' was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'k'"), std::string::npos)
          << e.what();
    }
  }
}

TEST(KvFile, LoadMissingFileThrows) {
  EXPECT_THROW(KvFile::load("/nonexistent/path.conf"), std::runtime_error);
}

TEST(Sparkline, EmptyAndConstant) {
  EXPECT_EQ(sparkline({}), "");
  const std::string flat = sparkline({5.0, 5.0, 5.0});
  EXPECT_EQ(flat.size(), 3u);
  EXPECT_EQ(flat[0], flat[1]);
}

TEST(Sparkline, MonotoneRampUsesFullRange) {
  const std::string ramp = " .:-=+*#";
  const std::string s = sparkline({0, 1, 2, 3, 4, 5, 6, 7});
  EXPECT_EQ(s.size(), 8u);
  EXPECT_EQ(s.front(), ' ');
  EXPECT_EQ(s.back(), '#');
  // Levels (ramp indices) must be non-decreasing for a monotone series.
  for (std::size_t i = 1; i < s.size(); ++i) {
    EXPECT_LE(ramp.find(s[i - 1]), ramp.find(s[i]));
  }
}

TEST(Json, SerializesTypesAndEscapes) {
  JsonObject o;
  o.set("count", std::uint64_t{42})
      .set("ratio", 0.5)
      .set("name", std::string("a\"b"))
      .set("flag", true);
  const std::string flat = o.str();
  EXPECT_NE(flat.find("\"count\": 42"), std::string::npos);
  EXPECT_NE(flat.find("\"ratio\": 0.5"), std::string::npos);
  EXPECT_NE(flat.find("\\\""), std::string::npos);  // escaped quote
  EXPECT_NE(flat.find("\"flag\": true"), std::string::npos);
  EXPECT_EQ(flat.front(), '{');
  EXPECT_EQ(flat.back(), '}');
}

TEST(Json, NonFiniteBecomesNull) {
  JsonObject o;
  o.set("nan", std::nan(""));
  EXPECT_NE(o.str().find("\"nan\": null"), std::string::npos);
}

TEST(Json, PrettyUsesNewlines) {
  JsonObject o;
  o.set("a", std::uint64_t{1}).set("b", std::uint64_t{2});
  const std::string pretty = o.str(true);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
}

}  // namespace
