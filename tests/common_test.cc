#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <set>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "common/env.h"
#include "common/radix_sort.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace tlp {
namespace {

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(1);
  for (int k = 0; k < 10000; ++k) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(2);
  for (int k = 0; k < 1000; ++k) {
    const double v = rng.Uniform(0.25, 4.0);
    EXPECT_GE(v, 0.25);
    EXPECT_LT(v, 4.0);
  }
}

TEST(RngTest, NextBelowCoversRangeWithoutOverflow) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int k = 0; k < 2000; ++k) {
    const std::uint64_t v = rng.NextBelow(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
  EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(4);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int k = 0; k < n; ++k) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

/// Radix-sorts `ids` and checks the result against std::sort.
void ExpectRadixSortsLikeStdSort(std::vector<std::uint32_t> ids) {
  std::vector<std::uint32_t> want = ids;
  std::sort(want.begin(), want.end());
  RadixSortBy(&ids, [](std::uint32_t id) { return id; });
  EXPECT_EQ(ids, want) << ids.size() << " ids";
}

TEST(RadixSortTest, TinyInputs) {
  ExpectRadixSortsLikeStdSort({});
  ExpectRadixSortsLikeStdSort({42});
  ExpectRadixSortsLikeStdSort({7, 3});
  ExpectRadixSortsLikeStdSort({3, 7});
  ExpectRadixSortsLikeStdSort({0xFFFFFFFEu, 0});
  ExpectRadixSortsLikeStdSort({0x01000000u, 0x00FFFFFFu, 0x00000100u});
}

TEST(RadixSortTest, EveryCountOfDigitPasses) {
  // The keys differ in the bytes `mask` keeps, so 1, 2, 3 or 4 digit
  // passes run (an odd count ends in the scratch buffer), including masks
  // whose skipped digits sit below or between the varying ones.
  Rng rng(11);
  for (const std::uint32_t mask :
       {0x000000FFu, 0xFF000000u, 0x0000FF00u, 0x0000FFFFu, 0xFF0000FFu,
        0x00FFFFFFu, 0xFFFF00FFu, 0xFFFFFFFFu}) {
    for (const std::size_t n : {3u, 255u, 256u, 257u, 1100u, 5000u}) {
      std::vector<std::uint32_t> ids(n);
      for (std::uint32_t& id : ids) {
        id = 0x5A5A5A5Au ^ (static_cast<std::uint32_t>(rng.Next()) & mask);
      }
      ExpectRadixSortsLikeStdSort(ids);
    }
  }
}

TEST(RadixSortTest, FullRangeAndDuplicates) {
  Rng rng(12);
  std::vector<std::uint32_t> ids;
  for (int k = 0; k < 2000; ++k) {
    ids.push_back(static_cast<std::uint32_t>(rng.NextBelow(0xFFFFFFFFu)));
  }
  ids.push_back(0xFFFFFFFEu);  // kInvalidObjectId - 1, the largest id
  ids.push_back(0);
  ExpectRadixSortsLikeStdSort(ids);
  std::vector<std::uint32_t> dups(ids.begin(), ids.begin() + 300);
  dups.insert(dups.end(), ids.begin(), ids.begin() + 300);
  dups.insert(dups.end(), 50, 0x00ABCDEFu);
  ExpectRadixSortsLikeStdSort(dups);
  ExpectRadixSortsLikeStdSort(std::vector<std::uint32_t>(100, 9));
}

TEST(RadixSortTest, StableByKey) {
  // Elements with equal keys keep their input order, as std::stable_sort.
  Rng rng(13);
  using Item = std::pair<std::uint32_t, int>;
  std::vector<Item> v;
  for (int k = 0; k < 3000; ++k) {
    v.emplace_back(static_cast<std::uint32_t>(rng.NextBelow(40)) << 20, k);
  }
  std::vector<Item> want = v;
  std::stable_sort(want.begin(), want.end(), [](const Item& a, const Item& b) {
    return a.first < b.first;
  });
  RadixSortBy(&v, [](const Item& x) { return x.first; });
  EXPECT_EQ(v, want);
}

TEST(ZipfSamplerTest, RankZeroDominatesAtAlphaOne) {
  Rng rng(5);
  const ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int k = 0; k < 20000; ++k) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 2000);  // ~1/H(100) = 19% of mass on rank 0
  int total = std::accumulate(counts.begin(), counts.end(), 0);
  EXPECT_EQ(total, 20000);
}

TEST(ZipfSamplerTest, AlphaZeroIsUniform) {
  Rng rng(6);
  const ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int k = 0; k < 20000; ++k) ++counts[zipf.Sample(rng)];
  for (const int c : counts) EXPECT_NEAR(c, 2000, 300);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int k = 0; k < 100; ++k) {
    pool.Submit([&] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();
  pool.Wait();  // and again: no stale state from the first call
}

TEST(ThreadPoolTest, WaitRethrowsTaskException) {
  ThreadPool pool(4);
  pool.Submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
}

TEST(ThreadPoolTest, OnlyFirstExceptionIsRethrownAndOnlyOnce) {
  ThreadPool pool(2);
  for (int k = 0; k < 8; ++k) {
    pool.Submit([] { throw std::runtime_error("task boom"); });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The error was consumed: a second Wait() with no new work is clean.
  pool.Wait();
}

TEST(ThreadPoolTest, FailedBatchDiscardsQueuedTasksButWaitStillReturns) {
  // One worker makes the schedule deterministic: the throwing task runs
  // first, so everything behind it in the queue belongs to the poisoned
  // batch and may be discarded. Wait() must neither deadlock nor run a
  // discarded task after rethrowing.
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  pool.Submit([] { throw std::runtime_error("task boom"); });
  for (int k = 0; k < 100; ++k) {
    pool.Submit([&] { ran.fetch_add(1); });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPoolTest, PoolIsReusableAfterException) {
  ThreadPool pool(4);
  pool.Submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  std::atomic<int> counter{0};
  for (int k = 0; k < 50; ++k) {
    pool.Submit([&] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, DestructionWithUnconsumedErrorDoesNotTerminate) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("task boom"); });
  // No Wait(): the destructor must drop the captured exception quietly.
}

TEST(ParallelForTest, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(pool, 1000,
                  [&](std::size_t begin, std::size_t) {
                    if (begin == 0) throw std::runtime_error("chunk boom");
                  }),
      std::runtime_error);
  // The pool survives for the next loop.
  std::atomic<int> counter{0};
  ParallelFor(pool, 10,
              [&](std::size_t begin, std::size_t end) {
                counter.fetch_add(static_cast<int>(end - begin));
              });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ParallelForChunksTest, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(ParallelForChunks(
                   pool, 100, 8,
                   [&](std::size_t chunk, std::size_t, std::size_t) {
                     if (chunk == 3) throw std::runtime_error("chunk boom");
                   }),
               std::runtime_error);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(pool, hits.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) hits[k].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  ParallelFor(pool, 0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForChunksTest, ExactChunkCountAndCoverage) {
  ThreadPool pool(4);
  // 10 elements over 4 chunks: sizes must be 3,3,2,2 (remainder first).
  std::vector<std::pair<std::size_t, std::size_t>> ranges(4);
  ParallelForChunks(pool, 10, 4,
                    [&](std::size_t c, std::size_t begin, std::size_t end) {
                      ranges[c] = {begin, end};
                    });
  EXPECT_EQ(ranges[0], (std::pair<std::size_t, std::size_t>{0, 3}));
  EXPECT_EQ(ranges[1], (std::pair<std::size_t, std::size_t>{3, 6}));
  EXPECT_EQ(ranges[2], (std::pair<std::size_t, std::size_t>{6, 8}));
  EXPECT_EQ(ranges[3], (std::pair<std::size_t, std::size_t>{8, 10}));
}

TEST(ParallelForChunksTest, MoreChunksThanElements) {
  ThreadPool pool(2);
  // Chunks beyond the element count come out empty, never out of range.
  std::vector<std::atomic<int>> hits(3);
  std::atomic<int> invocations{0};
  ParallelForChunks(pool, 3, 8,
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      invocations.fetch_add(1);
                      for (std::size_t k = begin; k < end; ++k) {
                        ASSERT_LT(k, hits.size());
                        hits[k].fetch_add(1);
                      }
                    });
  EXPECT_EQ(invocations.load(), 8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForChunksTest, SequentialPoolRunsInChunkOrder) {
  ThreadPool pool(1);  // single thread: chunks must run 0,1,2,... in order
  std::vector<std::size_t> order;
  ParallelForChunks(pool, 100, 5,
                    [&](std::size_t c, std::size_t, std::size_t) {
                      order.push_back(c);
                    });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForChunksTest, ZeroChunksIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  ParallelForChunks(pool, 10, 0,
                    [&](std::size_t, std::size_t, std::size_t) {
                      called = true;
                    });
  EXPECT_FALSE(called);
}

TEST(EnvTest, FallbacksAndParsing) {
  EXPECT_EQ(EnvInt64("TLP_SURELY_UNSET_VAR", 123), 123);
  EXPECT_DOUBLE_EQ(EnvDouble("TLP_SURELY_UNSET_VAR", 2.5), 2.5);
  // setenv is legal here: the GTest main is still single-threaded.
  setenv("TLP_TEST_INT", "77", 1);    // NOLINT(concurrency-mt-unsafe)
  EXPECT_EQ(EnvInt64("TLP_TEST_INT", 0), 77);
  setenv("TLP_TEST_BAD", "xyz", 1);   // NOLINT(concurrency-mt-unsafe)
  EXPECT_EQ(EnvInt64("TLP_TEST_BAD", 9), 9);
  setenv("TLP_TEST_DBL", "0.125", 1); // NOLINT(concurrency-mt-unsafe)
  EXPECT_DOUBLE_EQ(EnvDouble("TLP_TEST_DBL", 0), 0.125);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  const double t0 = watch.ElapsedSeconds();
  EXPECT_GE(t0, 0.0);
  watch.Reset();
  EXPECT_GE(watch.ElapsedMicros(), 0.0);
  EXPECT_LE(watch.ElapsedSeconds(), 5.0);  // sanity
}

}  // namespace
}  // namespace tlp
