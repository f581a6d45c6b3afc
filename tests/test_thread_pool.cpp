#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace carbonedge::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPool, TaskExceptionsSurfaceViaFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(pool, 5, 5, [&](std::size_t) { ++calls; });
  parallel_for(pool, 7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, ComputesSameResultAsSerial) {
  ThreadPool pool(3);
  std::vector<double> out(2048, 0.0);
  parallel_for(pool, 0, out.size(), [&](std::size_t i) {
    out[i] = static_cast<double>(i) * 0.5;
  });
  double total = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, 0.5 * 2047.0 * 2048.0 / 2.0);
}

TEST(ParallelFor, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(pool, 0, 100,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("failure at 37");
                   },
                   /*chunk=*/1),
      std::runtime_error);
}

TEST(ParallelFor, NestedUseOfTheSamePoolRunsInlineInsteadOfDeadlocking) {
  // Saturate a 2-worker pool with outer tasks that each parallel_for on the
  // same pool: without inline fallback every worker would block in
  // future.wait() on tasks no free worker can execute.
  ThreadPool pool(2);
  std::vector<std::vector<int>> out(4, std::vector<int>(8, 0));
  parallel_for(
      pool, 0, out.size(),
      [&](std::size_t outer) {
        EXPECT_TRUE(pool.on_worker_thread());
        parallel_for(pool, 0, out[outer].size(),
                     [&](std::size_t inner) { out[outer][inner] = static_cast<int>(inner) + 1; },
                     /*chunk=*/1);
      },
      /*chunk=*/1);
  for (const auto& row : out) {
    for (std::size_t i = 0; i < row.size(); ++i) EXPECT_EQ(row[i], static_cast<int>(i) + 1);
  }
  EXPECT_FALSE(pool.on_worker_thread());
}

TEST(ThreadPool, SizeReflectsWorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  auto f = global_pool().submit([] { return 7; });
  EXPECT_EQ(f.get(), 7);
}

}  // namespace
}  // namespace carbonedge::util
