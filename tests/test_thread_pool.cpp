#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

namespace matchsparse {
namespace {

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, hits.size(),
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroIterations) {
  parallel_for(0, [](std::size_t) { FAIL(); });
  SUCCEED();
}

TEST(ParallelFor, MoreIterationsThanThreads) {
  std::atomic<long> sum{0};
  parallel_for(257, [&](std::size_t i) {
    sum.fetch_add(static_cast<long>(i));
  });
  EXPECT_EQ(sum.load(), 257L * 256 / 2);
}

TEST(ParallelFor, WaitsOnlyForItsOwnIterations) {
  // Another caller's task holds one of three workers; a two-iteration
  // loop runs on the other two and must return while that task is still
  // blocked.
  ThreadPool pool(3);
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::promise<void> holding;
  pool.submit([released, &holding] {
    holding.set_value();
    released.wait();
  });
  holding.get_future().wait();
  std::atomic<int> ran{0};
  auto call = std::async(std::launch::async, [&] {
    parallel_for(pool, 2, [&](std::size_t) { ran.fetch_add(1); });
  });
  const std::future_status status = call.wait_for(std::chrono::seconds(10));
  release.set_value();
  call.wait();
  pool.wait_idle();
  EXPECT_EQ(status, std::future_status::ready);
  EXPECT_EQ(ran.load(), 2);
}

TEST(ParallelFor, OneIterationRunsOnTheCallingThread) {
  ThreadPool pool(2);
  std::thread::id ran_on;
  parallel_for(pool, 1,
               [&](std::size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    parallel_for(pool, 20, [&](std::size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 100);
}

}  // namespace
}  // namespace matchsparse
