// Tests for the shared parallel runtime (common/parallel.h) and the
// concurrency-safety of PliCache under it.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <vector>

#include "common/parallel.h"
#include "data/relation.h"
#include "partition/pli_cache.h"

namespace metaleak {
namespace {

// Restores the default global thread count when a test tweaks it.
class ThreadCountGuard {
 public:
  ThreadCountGuard() = default;
  ~ThreadCountGuard() { SetGlobalThreadCount(0); }
};

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  SetGlobalThreadCount(8);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> seen(kN);
  for (auto& s : seen) s.store(0);
  ParallelFor(0, kN, 7, [&](size_t i) { seen[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(seen[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, NonZeroBeginCoversExactRange) {
  ThreadCountGuard guard;
  SetGlobalThreadCount(4);
  std::vector<std::atomic<int>> seen(100);
  for (auto& s : seen) s.store(0);
  ParallelFor(37, 91, 5, [&](size_t i) { seen[i].fetch_add(1); });
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_EQ(seen[i].load(), (i >= 37 && i < 91) ? 1 : 0) << i;
  }
}

TEST(ParallelForTest, EmptyRangeNeverInvokes) {
  std::atomic<int> calls{0};
  ParallelFor(5, 5, 1, [&](size_t) { calls.fetch_add(1); });
  ParallelFor(9, 3, 1, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, GrainLargerThanRangeRunsInline) {
  std::atomic<int> calls{0};
  ParallelFor(0, 10, 1000, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 10);
}

TEST(ParallelForTest, ZeroGrainTreatedAsOne) {
  std::atomic<int> calls{0};
  ParallelFor(0, 10, 0, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 10);
}

TEST(ParallelForTest, NestedCallsCoverAllIndices) {
  ThreadCountGuard guard;
  SetGlobalThreadCount(4);
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 64;
  std::vector<std::atomic<int>> seen(kOuter * kInner);
  for (auto& s : seen) s.store(0);
  ParallelFor(0, kOuter, 1, [&](size_t o) {
    // Runs inline on the worker — must neither deadlock nor drop work.
    ParallelFor(0, kInner, 8,
                [&](size_t i) { seen[o * kInner + i].fetch_add(1); });
  });
  for (size_t i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i].load(), 1) << "slot " << i;
  }
}

TEST(ParallelForTest, ChunkVariantPartitionsRange) {
  ThreadCountGuard guard;
  SetGlobalThreadCount(4);
  constexpr size_t kN = 5000;
  std::vector<std::atomic<int>> seen(kN);
  for (auto& s : seen) s.store(0);
  ParallelForChunks(0, kN, 97, [&](size_t lo, size_t hi) {
    ASSERT_LT(lo, hi);
    for (size_t i = lo; i < hi; ++i) seen[i].fetch_add(1);
  });
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(seen[i].load(), 1);
}

TEST(ParallelForTest, PropagatesException) {
  ThreadCountGuard guard;
  SetGlobalThreadCount(4);
  EXPECT_THROW(ParallelFor(0, 1000, 1,
                           [&](size_t i) {
                             if (i == 537) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

TEST(ParallelReduceTest, MatchesSerialFold) {
  ThreadCountGuard guard;
  SetGlobalThreadCount(8);
  constexpr size_t kN = 12345;
  uint64_t serial = 0;
  for (size_t i = 0; i < kN; ++i) serial += i * i;
  uint64_t parallel = ParallelReduce<uint64_t>(
      0, kN, 64, uint64_t{0},
      [](size_t lo, size_t hi) {
        uint64_t s = 0;
        for (size_t i = lo; i < hi; ++i) s += i * i;
        return s;
      },
      [](uint64_t a, uint64_t b) { return a + b; });
  EXPECT_EQ(parallel, serial);
}

TEST(ParallelReduceTest, EmptyRangeYieldsIdentity) {
  double out = ParallelReduce<double>(
      3, 3, 16, 42.5, [](size_t, size_t) { return 0.0; },
      [](double a, double b) { return a + b; });
  EXPECT_EQ(out, 42.5);
}

TEST(ParallelReduceTest, FloatingPointIdenticalAcrossThreadCounts) {
  // Chunking depends only on the grain, so the combine sequence — hence
  // the rounded result — is bit-identical at every thread count.
  constexpr size_t kN = 40000;
  auto run = [] {
    return ParallelReduce<double>(
        0, kN, 512, 0.0,
        [](size_t lo, size_t hi) {
          double s = 0.0;
          for (size_t i = lo; i < hi; ++i) {
            s += std::sin(static_cast<double>(i)) / (i + 1.0);
          }
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  ThreadCountGuard guard;
  SetGlobalThreadCount(1);
  double one = run();
  SetGlobalThreadCount(8);
  double eight = run();
  EXPECT_EQ(one, eight);  // bitwise, not approximate
}

TEST(ThreadPoolTest, ResizeChangesWorkerCount) {
  ThreadCountGuard guard;
  SetGlobalThreadCount(3);
  EXPECT_EQ(GlobalThreadCount(), 3u);
  SetGlobalThreadCount(5);
  EXPECT_EQ(GlobalThreadCount(), 5u);
}

TEST(ThreadPoolTest, StandalonePoolRunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::mutex mu;
  std::condition_variable cv;
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&] {
      if (ran.fetch_add(1) + 1 == 32) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return ran.load() == 32; });
  EXPECT_EQ(ran.load(), 32);
}

// --- PliCache under concurrency ------------------------------------------

Relation TwoColumnRelation(size_t rows) {
  std::vector<Value> a, b;
  a.reserve(rows);
  b.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    a.push_back(Value::Int(static_cast<int64_t>(r % 7)));
    b.push_back(Value::Int(static_cast<int64_t>(r % 5)));
  }
  Schema schema({{"a", DataType::kInt64, SemanticType::kCategorical},
                 {"b", DataType::kInt64, SemanticType::kCategorical}});
  return std::move(Relation::Make(schema, {std::move(a), std::move(b)}))
      .ValueOrDie();
}

TEST(PliCacheConcurrencyTest, SingleFlightUnderConcurrentGet) {
  ThreadCountGuard guard;
  SetGlobalThreadCount(8);
  Relation rel = TwoColumnRelation(512);
  const EncodedRelation encoded = EncodedRelation::Encode(rel);
  PliCache cache(&encoded);
  AttributeSet both = AttributeSet::Of({0, 1});

  constexpr size_t kLookups = 64;
  std::vector<const PositionListIndex*> seen(kLookups, nullptr);
  ParallelFor(0, kLookups, 1,
              [&](size_t i) { seen[i] = cache.Get(both); });

  // Every lookup returned the same built-once instance.
  for (size_t i = 1; i < kLookups; ++i) EXPECT_EQ(seen[i], seen[0]);
  // Exactly one miss (the single-flight build); the other lookups were
  // hits, plus two more from the builder resolving the {0} and {1}
  // parents.
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), kLookups - 1 + 2);
  EXPECT_EQ(cache.size(), 4u);  // empty set + 2 singletons + {0,1}
}

TEST(PliCacheConcurrencyTest, ConcurrentDistinctKeysAllBuilt) {
  ThreadCountGuard guard;
  SetGlobalThreadCount(8);
  Relation rel = TwoColumnRelation(256);
  const EncodedRelation encoded = EncodedRelation::Encode(rel);
  PliCache cache(&encoded);
  // Concurrent composite and singleton lookups; singletons were eagerly
  // built, so they count as hits.
  ParallelFor(0, 32, 1, [&](size_t i) {
    if (i % 2 == 0) {
      cache.Get(AttributeSet::Of({0, 1}));
    } else {
      cache.Get(AttributeSet::Single(i % 4 / 2));
    }
  });
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 4u);
}

}  // namespace
}  // namespace metaleak
