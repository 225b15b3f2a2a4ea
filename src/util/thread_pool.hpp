// A small work-stealing-free thread pool used to parallelise independent
// Monte-Carlo trials in the experiment harness and the sharded
// sparsify→CSR construction pipeline. All parallelism in this repository
// is explicit (per the HPC guides): shards are embarrassingly parallel
// and share nothing, so a fixed pool with an atomic work index is the
// whole story. Long-lived callers share the process-wide default_pool()
// instead of paying a spawn+join per parallel region.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "util/ambient.hpp"

namespace matchsparse {

class ThreadPool {
 public:
  /// Spawns `threads` workers (default: hardware concurrency, at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; returns immediately. The submitting thread's
  /// ambient state (run guard, metrics registry, trace scope — see
  /// util/ambient.hpp) is captured here and re-installed around the
  /// task body, so workers poll and record against the REQUEST that
  /// spawned the task, not a process-wide slot. That inheritance is
  /// what lets N guarded runs share one pool without stomping each
  /// other (DESIGN.md §14).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

 private:
  /// One queued unit of work: the task plus the ambient state it runs
  /// under (captured at submit time on the submitting thread).
  struct Job {
    ambient::Snapshot context;
    std::function<void()> fn;
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<Job> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Process-wide shared pool, lazily constructed on first use with one
/// worker per hardware thread (override: MS_POOL_THREADS=<n> in the
/// environment, used by the CI stress lanes to pin 8 workers on small
/// runners) and destroyed at process exit. Callers that want fewer than
/// pool.size() lanes bound the *task count* they submit (parallel_for
/// never uses more lanes than iterations); there is no need to build a
/// smaller pool.
ThreadPool& default_pool();

/// Runs fn(i) for i in [0, count) across the pool's threads, blocking until
/// all of this call's iterations complete (tasks other callers submitted
/// to the pool do not hold it up). Iterations must be independent. A
/// single iteration runs inline on the calling thread and submits
/// nothing. Re-entrant: when called from inside one of `pool`'s own
/// workers the loop runs inline on the calling thread (submitting and
/// waiting would deadlock a fully busy pool).
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

/// Convenience: runs fn(i) for i in [0, count) on the shared default_pool()
/// (no per-call thread spawn/join).
void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& fn);

}  // namespace matchsparse
