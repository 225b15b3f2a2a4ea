#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/common.hpp"
#include "util/parse.hpp"

namespace matchsparse {

namespace {

// Set while a worker thread is executing tasks for its pool; lets
// parallel_for detect re-entrant calls and degrade to an inline loop
// instead of deadlocking on its own join.
thread_local ThreadPool* t_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    MS_CHECK_MSG(!stop_, "submit() on a stopped pool");
    queue_.push(Job{ambient::capture(), std::move(task)});
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  t_worker_pool = this;
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained
      job = std::move(queue_.front());
      queue_.pop();
    }
    {
      // Run under the submitter's ambient state; restore the worker's
      // (empty) state before the next job so no request leaks into
      // work submitted by a different one.
      const ambient::Scope inherited(job.context);
      job.fn();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

ThreadPool& default_pool() {
  // Lazily built, joined at process exit. MS_POOL_THREADS overrides the
  // hardware-concurrency default — CI stress lanes pin 8 workers so the
  // interleavings they hunt exist even on 2-core runners.
  static ThreadPool pool([] {
    const char* env = std::getenv("MS_POOL_THREADS");
    if (env != nullptr) {
      const auto parsed = parse_u64(env);
      if (parsed.has_value() && *parsed > 0 && *parsed <= 1024) {
        return static_cast<std::size_t>(*parsed);
      }
    }
    return std::size_t{0};  // hardware concurrency
  }());
  return pool;
}

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (count == 1 || t_worker_pool == &pool) {
    // One iteration, or a nested region on the same pool: run inline on
    // the calling thread.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // The join counts this call's lanes only, so other callers' tasks on
  // the pool never hold it up. A lane signals under the mutex, so the
  // wait below cannot return (and free the join) before the lane has
  // finished with it.
  struct Join {
    std::mutex mutex;
    std::condition_variable done;
    std::size_t running = 0;
  } join;
  std::atomic<std::size_t> next{0};
  join.running = std::min(pool.size(), count);
  for (std::size_t lane = join.running; lane > 0; --lane) {
    pool.submit([&next, &join, count, &fn] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) break;
        fn(i);
      }
      const std::lock_guard<std::mutex> lock(join.mutex);
      if (--join.running == 0) join.done.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(join.mutex);
  join.done.wait(lock, [&join] { return join.running == 0; });
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  parallel_for(default_pool(), count, fn);
}

}  // namespace matchsparse
