#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "util/error.hpp"

namespace latol::util {
namespace {

TEST(ThreadPool, SpawnsRequestedWorkers) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
}

TEST(ThreadPool, ZeroSelectsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.worker_count(), 1u);
}

TEST(ThreadPool, RejectsEmptyTask) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), InvalidArgument);
}

TEST(ThreadPool, ExecutesSubmittedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) pool.submit([&] { ++counter; });
  }  // the destructor drains the queue before joining
  EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, HandlesZeroIterations) {
  parallel_for(0, [](std::size_t) { FAIL() << "must not run"; }, 2);
}

TEST(ParallelFor, HandlesFewerIterationsThanWorkers) {
  std::atomic<int> counter{0};
  parallel_for(2, [&](std::size_t) { ++counter; }, 8);
  EXPECT_EQ(counter.load(), 2);
}

TEST(ParallelFor, ResultsIndependentOfWorkerCount) {
  auto run = [](std::size_t workers) {
    std::vector<double> out(500);
    parallel_for(out.size(),
                 [&](std::size_t i) { out[i] = static_cast<double>(i) * 1.5; },
                 workers);
    return out;
  };
  EXPECT_EQ(run(1), run(7));
}

TEST(ParallelFor, ReusablePool) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  parallel_for(pool, 100, [&](std::size_t i) { sum += static_cast<long>(i); });
  parallel_for(pool, 100, [&](std::size_t i) { sum += static_cast<long>(i); });
  EXPECT_EQ(sum.load(), 2 * (99 * 100) / 2);
}

// Stress the work-stealing path: uneven per-index cost forces fast chunks
// to drain and steal from slow ones; every index must still run exactly
// once, which is what guarantees the disjoint-write bit-identity argument
// in DESIGN.md §10.
TEST(ParallelFor, StealingCoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(kN,
               [&](std::size_t i) {
                 // First chunk is much slower than the rest.
                 if (i < kN / 8) {
                   volatile double x = 1.0;
                   for (int k = 0; k < 2000; ++k) x = x * 1.000001;
                 }
                 ++hits[i];
               },
               8);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, SharedPoolIsASingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
  EXPECT_GE(ThreadPool::shared().worker_count(), 1u);
}

TEST(ParallelFor, WorkersZeroUsesSharedPool) {
  std::atomic<long> sum{0};
  parallel_for(257, [&](std::size_t i) { sum += static_cast<long>(i); }, 0);
  EXPECT_EQ(sum.load(), 256L * 257 / 2);
}

// Nested parallel_for on the shared pool must not deadlock: the caller
// participates in its own loop, so inner loops always have at least one
// thread making progress even when every pool worker is busy.
TEST(ParallelFor, NestedOnSharedPoolCompletes) {
  std::atomic<long> total{0};
  parallel_for(8,
               [&](std::size_t) {
                 parallel_for(
                     16, [&](std::size_t j) { total += static_cast<long>(j); },
                     0);
               },
               0);
  EXPECT_EQ(total.load(), 8 * (15L * 16 / 2));
}

TEST(ParallelFor, OrderedForEmitsEveryTaskInOrderWithinTheWindow) {
  for (const std::size_t window : {1u, 2u, 5u, 64u}) {
    for (const std::size_t workers : {1u, 3u, 8u}) {
      ThreadPool pool(workers);
      const std::size_t n = 200;
      std::vector<std::size_t> slot_owner(window, n);
      std::vector<std::size_t> emitted;
      std::atomic<std::size_t> started{0};
      std::atomic<std::size_t> done{0};
      std::atomic<bool> overran{false};
      ordered_for(
          pool, n, window,
          [&](std::size_t t) {
            ++started;
            // A task never runs a window or more ahead of emission.
            if (t >= done.load() + window) overran = true;
            slot_owner[t % window] = t;
            // Uneven work, so later tasks often finish first.
            volatile double x = 0;
            for (std::size_t k = 0; k < (t % 7) * 500; ++k) x = x + 1.0;
          },
          [&](std::size_t t) {
            EXPECT_EQ(slot_owner[t % window], t);
            emitted.push_back(t);
            ++done;
          });
      std::vector<std::size_t> expected(n);
      std::iota(expected.begin(), expected.end(), 0);
      EXPECT_EQ(emitted, expected) << window << " / " << workers;
      EXPECT_EQ(started.load(), n);
      EXPECT_FALSE(overran.load()) << window << " / " << workers;
    }
  }
}

TEST(ParallelFor, OrderedForHandlesNoTasksAndRejectsAnEmptyWindow) {
  ThreadPool pool(2);
  ordered_for(
      pool, 0, 4, [](std::size_t) { FAIL() << "must not run"; },
      [](std::size_t) { FAIL() << "must not emit"; });
  EXPECT_THROW(ordered_for(pool, 3, 0, [](std::size_t) {}, [](std::size_t) {}),
               InvalidArgument);
}

}  // namespace
}  // namespace latol::util
