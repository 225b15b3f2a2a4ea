#include "loadgen.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

namespace perfbench {
namespace {

struct Recorder {
  std::mutex mu;
  LoopRun run;

  void add(std::uint64_t index, const Timing& t) {
    const std::lock_guard<std::mutex> lock(mu);
    if (run.timings.size() <= index) run.timings.resize(index + 1);
    run.timings[index] = t;
    run.elapsed = std::max(run.elapsed, t.done);
  }
};

LoopRun run_threads(std::size_t conns,
                    const std::function<void(std::size_t, Recorder&)>& body) {
  Recorder rec;
  std::exception_ptr failure;
  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&body, &rec, &failure, c] {
      try {
        body(c, rec);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(rec.mu);
        if (!failure) failure = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (failure) std::rethrow_exception(failure);
  return std::move(rec.run);
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

LoopRun run_open_loop(double rate_per_s, double seconds, std::size_t conns,
                      const Op& op) {
  std::atomic<std::uint64_t> next{0};
  const double t0 = now_s();
  return run_threads(conns, [&](std::size_t conn, Recorder& rec) {
    // Wake at the due time, not up to the default 50 µs timer slack later.
    ::prctl(PR_SET_TIMERSLACK, 1UL);
    for (;;) {
      const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      Timing t;
      t.due = static_cast<double>(i) / rate_per_s;
      if (t.due >= seconds) return;
      const double wait = t0 + t.due - now_s();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      t.sent = now_s() - t0;
      op(conn, i, t);
      t.done -= t0;
      rec.add(i, t);
    }
  });
}

LoopRun run_closed_loop(double seconds, std::size_t conns, const Op& op) {
  std::atomic<std::uint64_t> next{0};
  const double t0 = now_s();
  return run_threads(conns, [&](std::size_t conn, Recorder& rec) {
    for (;;) {
      Timing t;
      t.due = t.sent = now_s() - t0;
      if (t.sent >= seconds) return;
      const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      op(conn, i, t);
      t.done -= t0;
      rec.add(i, t);
    }
  });
}

Lateness lateness_of(const LoopRun& run, double limit_ms) {
  Lateness out;
  for (const Timing& t : run.timings) {
    out.late_ms.add(std::max(0.0, t.lateness()) * 1e3);
  }
  const auto p99 = out.late_ms.quantile(0.99);
  out.valid = !p99 || *p99 <= kMaxLateShareOfLimit * limit_ms;
  return out;
}

}  // namespace perfbench
