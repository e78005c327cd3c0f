#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "util/geometry.h"
#include "util/ids.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strfmt.h"
#include "util/thread_pool.h"

namespace repro {
namespace {

TEST(Strfmt, FormatDouble17gRoundTripsBitExactly) {
  // %.17g prints enough digits that strtod() restores the exact bit pattern;
  // every deterministic text emitter (JSONL writer, bench JSON) relies on it.
  const double values[] = {0.0,
                           1.0,
                           0.1 + 0.2,
                           1.0 / 3.0,
                           24.349999999999998,
                           1e-300,
                           1e300,
                           -12345.678901234567,
                           5e-324 /* min subnormal */};
  for (double v : values) {
    const std::string text = format_double_17g(v);
    const double back = std::strtod(text.c_str(), nullptr);
    EXPECT_EQ(back, v) << text;
  }
  // Negative zero keeps its sign through the round trip.
  const double nz = std::strtod(format_double_17g(-0.0).c_str(), nullptr);
  EXPECT_TRUE(std::signbit(nz));
}

TEST(Ids, DefaultIsInvalid) {
  CellId c;
  EXPECT_FALSE(c.valid());
  EXPECT_EQ(c, CellId::invalid());
}

TEST(Ids, ValueRoundTrip) {
  CellId c(42);
  EXPECT_TRUE(c.valid());
  EXPECT_EQ(c.value(), 42);
  EXPECT_EQ(c.index(), 42u);
}

TEST(Ids, DistinctTagTypesDoNotMix) {
  static_assert(!std::is_same_v<CellId, NetId>);
  static_assert(!std::is_convertible_v<CellId, NetId>);
}

TEST(Ids, Ordering) {
  EXPECT_LT(CellId(1), CellId(2));
  EXPECT_LT(CellId::invalid(), CellId(0));
}

TEST(Ids, Hashable) {
  std::unordered_set<CellId> s;
  s.insert(CellId(1));
  s.insert(CellId(1));
  s.insert(CellId(2));
  EXPECT_EQ(s.size(), 2u);
}

TEST(Geometry, Manhattan) {
  EXPECT_EQ(manhattan({0, 0}, {3, 4}), 7);
  EXPECT_EQ(manhattan({3, 4}, {0, 0}), 7);
  EXPECT_EQ(manhattan({5, 5}, {5, 5}), 0);
  EXPECT_EQ(manhattan({-2, 1}, {2, -1}), 6);
}

TEST(Geometry, RectEmptyAndInclude) {
  Rect r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.half_perimeter(), 0);
  r.include({3, 4});
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(r.width(), 1);
  EXPECT_EQ(r.height(), 1);
  r.include({1, 7});
  EXPECT_EQ(r.xmin, 1);
  EXPECT_EQ(r.xmax, 3);
  EXPECT_EQ(r.ymin, 4);
  EXPECT_EQ(r.ymax, 7);
  EXPECT_EQ(r.half_perimeter(), 2 + 3);
}

TEST(Geometry, RectContains) {
  Rect r{1, 1, 4, 4};
  EXPECT_TRUE(r.contains({1, 1}));
  EXPECT_TRUE(r.contains({4, 4}));
  EXPECT_FALSE(r.contains({0, 2}));
  EXPECT_FALSE(r.contains({5, 2}));
}

TEST(Geometry, RectInflateClips) {
  Rect r{2, 2, 3, 3};
  Rect g = r.inflated(5, 6, 4);
  EXPECT_EQ(g.xmin, 0);
  EXPECT_EQ(g.ymin, 0);
  EXPECT_EQ(g.xmax, 6);
  EXPECT_EQ(g.ymax, 4);
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(13), 13u);
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextIntInclusive) {
  Rng rng(5);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) {
    int v = rng.next_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, WeightedRespectsZeroWeights) {
  Rng rng(3);
  std::vector<double> w{0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_weighted(w), 1u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Stats, AccumulatorBasics) {
  StatAccumulator acc;
  for (double x : {1.0, 2.0, 3.0, 4.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_NEAR(acc.variance(), 1.25, 1e-12);
}

TEST(Stats, EmptyAccumulatorIsZero) {
  StatAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.stddev(), 0.0);
}

TEST(Stats, MeanAndGeomean) {
  EXPECT_DOUBLE_EQ(mean_of({2.0, 8.0}), 5.0);
  EXPECT_NEAR(geomean_of({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_EQ(mean_of({}), 0.0);
}

TEST(Stats, Fmt) {
  EXPECT_EQ(fmt(1.23456, 3), "1.235");
  EXPECT_EQ(fmt(2.0, 1), "2.0");
}

// Regression stress for the lost-wakeup race in the pool's park/notify path
// (parallel_for queues its helper entries and ~ThreadPool sets its stop flag
// under the pool mutex the workers wait on): a worker that has just
// evaluated its wait predicate as false must still observe a concurrently
// queued entry. Small bursts against a freshly woken or parking
// pool maximize that window. The caller's chunk 0 waits until every other
// chunk has run, which only woken workers can do, so the observable failure
// is a hang (a worker sleeping through the notify), which the test TIMEOUT
// turns into a failure. Run under TSan in CI.
void parallel_for_on_workers(ThreadPool& pool, std::size_t n) {
  std::atomic<std::size_t> others{0};
  pool.parallel_for(n, 1, [&](std::size_t i) {
    if (i != 0) {
      others.fetch_add(1, std::memory_order_release);
      return;
    }
    while (others.load(std::memory_order_acquire) != n - 1)
      std::this_thread::yield();
  });
  ASSERT_EQ(others.load(), n - 1);
}

TEST(ThreadPool, RapidParallelForDrainShutdownCycles) {
  for (int cycle = 0; cycle < 150; ++cycle) {
    ThreadPool pool(3);
    // 1-helper burst on a pool whose workers are about to park.
    parallel_for_on_workers(pool, 2);

    // Drain a small burst, then immediately go quiet so workers re-park;
    // repeat to cycle park -> wake -> park within one pool lifetime.
    for (int burst = 0; burst < 3; ++burst) parallel_for_on_workers(pool, 4);
    // Pool destruction: shutdown racing with workers that may be parking.
  }
}

TEST(ThreadPool, ParallelForUnderRepeatedTinyRanges) {
  ThreadPool pool(4);
  for (int round = 0; round < 100; ++round) {
    std::atomic<std::size_t> hits{0};
    // n == 1 makes the caller race the notify path with a single chunk.
    const std::size_t n = 1 + static_cast<std::size_t>(round % 3);
    pool.parallel_for(n, 1, [&](std::size_t) {
      hits.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(hits.load(), n);
  }
}

}  // namespace
}  // namespace repro
