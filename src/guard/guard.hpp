// Run-guard subsystem — cooperative cancellation, deadlines, and memory
// budgets for every execution model (DESIGN.md §12).
//
// The problem: a single oversized or adversarial request (huge n, tiny ε,
// pathological β) can pin a worker or the distributed engine indefinitely.
// The fault layer (§9) hardened the *network* and the obs layer (§11) made
// runs *observable*; this layer bounds and aborts a run itself, so the
// degradation ladder in core/api can trade accuracy for time instead of
// failing (Thm 2.1 makes ε ↔ Δ a principled dial; Lem 2.2 floors the
// maximal-matching fallback).
//
// Design, mirroring the obs dormant-path idiom:
//
//   - One installation slot PER THREAD (util/ambient.hpp), inherited by
//     pool workers from the submitting thread at submit time — so N
//     concurrent guarded requests each poll their own guard instead of
//     stomping a process-wide slot (DESIGN.md §14). With no guard
//     installed, guard::poll() is a single thread-local load and a
//     branch — cheap enough for every-K-iterations use in the hot
//     loops of sparsify / CSR build / augmentation / the engine's round
//     loop, and measured <2% on bench_micro medians.
//   - RunGuard holds the shared stop state: a sticky StopReason set by
//     cancel() (cross-thread safe), by a hard deadline observed at a
//     polling site, or by a MemoryBudget overrun at a charge site. The
//     first reason wins (CAS) and is what the ladder reports.
//   - Cancellation is COOPERATIVE and two-levelled:
//       guard::poll()  — non-throwing "should I stop?", the only form
//                        allowed inside thread-pool workers (an exception
//                        escaping a pool task would std::terminate);
//                        workers bail early and the orchestrator calls
//       guard::check() — after the join (and at serial cancellation
//                        points), which throws the typed Interrupted
//                        subclass for the ladder to catch. Every path
//                        unwinds through RAII only, so graphs, engines
//                        and protocols stay destructible and re-runnable.
//   - MemoryBudget is an accounting hook, not an allocator: the builders
//     charge their big arrays (CSR offsets/adjacency, mark buffers,
//     engine mailboxes) before allocating, via the RAII MemCharge, and
//     release on scope exit. The cap bounds *concurrent* charged bytes;
//     peak() is reported in the run outcome.
//
// Trip events (never the polls themselves — those are too hot) are
// mirrored into obs counters: guard.trips.cancelled / .deadline /
// .budget, and the ladder emits guard.degrade.eps / .maximal.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "util/ambient.hpp"

namespace matchsparse::guard {

/// Why a guarded run stopped. kNone means "still running / never
/// stopped". Sticky: the first transition away from kNone wins.
enum class StopReason : std::uint8_t {
  kNone = 0,
  kCancelled,  // external cancel() — never retried by the ladder
  kDeadline,   // hard deadline observed at a polling site
  kBudget,     // MemoryBudget charge would exceed the cap
};

const char* to_string(StopReason reason);

/// Base of the typed interruption exceptions thrown by guard::check()
/// and MemCharge. The ladder catches this; nothing else in the library
/// should swallow it.
class Interrupted : public std::runtime_error {
 public:
  Interrupted(StopReason reason, const std::string& what)
      : std::runtime_error(what), reason_(reason) {}
  StopReason reason() const { return reason_; }

 private:
  StopReason reason_;
};

class Cancelled : public Interrupted {
 public:
  explicit Cancelled(const std::string& where)
      : Interrupted(StopReason::kCancelled, "run cancelled at " + where) {}
};

class DeadlineExceeded : public Interrupted {
 public:
  explicit DeadlineExceeded(const std::string& where)
      : Interrupted(StopReason::kDeadline, "deadline exceeded at " + where) {}
};

class BudgetExceeded : public Interrupted {
 public:
  BudgetExceeded(const std::string& what, std::uint64_t requested,
                 std::uint64_t used, std::uint64_t cap)
      : Interrupted(StopReason::kBudget,
                    "memory budget exceeded charging " + what + ": " +
                        std::to_string(requested) + " B requested, " +
                        std::to_string(used) + " of " + std::to_string(cap) +
                        " B in use") {}
};

/// Per-run byte-accounting budget. charge/release are relaxed atomics;
/// a failed charge is rolled back, trips the owning guard (reason
/// kBudget) and reports false — MemCharge turns that into a typed
/// BudgetExceeded. cap == 0 means unlimited (accounting only).
class MemoryBudget {
 public:
  explicit MemoryBudget(std::uint64_t cap_bytes = 0) : cap_(cap_bytes) {}

  std::uint64_t cap() const { return cap_; }
  std::uint64_t used() const { return used_.load(std::memory_order_relaxed); }
  std::uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }

  /// True on success; false when the charge would exceed the cap (the
  /// failed charge is not recorded).
  bool try_charge(std::uint64_t bytes);
  void release(std::uint64_t bytes);

 private:
  std::uint64_t cap_;
  std::atomic<std::uint64_t> used_{0};
  std::atomic<std::uint64_t> peak_{0};
};

/// The shared state of one guarded run. Construct, install with
/// ScopedGuard (or own it in a RunContext), run; poll sites on the
/// installing thread and on pool workers it submits to observe it
/// (cross-thread by design — workers and a cancelling caller see the
/// same object).
class RunGuard {
 public:
  struct Limits {
    /// Hard wall-clock ceiling in milliseconds; 0 = none, and so is any
    /// value the steady clock cannot reach (+inf, 1e300). Observed at
    /// polling sites (cooperative — no watchdog thread).
    double deadline_ms = 0.0;
    /// Soft deadline in milliseconds; 0 = none, as is any value past the
    /// clock's range. Never stops the run:
    /// soft_expired() turns true and the ladder uses it to degrade at
    /// the next phase boundary instead of burning the hard budget.
    double soft_deadline_ms = 0.0;
    /// Byte cap for MemoryBudget; 0 = unlimited (accounting only).
    std::uint64_t mem_budget_bytes = 0;
    /// Test hook: trip kCancelled on the N-th poll (1-based); 0 = off.
    /// Gives the cancellation fuzz a deterministic way to stop a run at
    /// an arbitrary internal point without timing dependence.
    std::uint64_t cancel_after_polls = 0;
  };

  RunGuard() : RunGuard(Limits()) {}
  /// Binds trip attribution to the constructing thread's ambient
  /// registry (the owning request's, or the global one when unscoped).
  explicit RunGuard(const Limits& limits);
  /// Explicit-registry form for owners that build the guard BEFORE
  /// entering the request scope (RunContext constructs its guard and
  /// registry as siblings). nullptr → global registry.
  RunGuard(const Limits& limits, obs::Registry* metrics);

  /// Cross-thread cancellation; sticky, idempotent.
  void cancel();

  StopReason stop_reason() const {
    return static_cast<StopReason>(reason_.load(std::memory_order_relaxed));
  }
  bool stopped() const { return stop_reason() != StopReason::kNone; }

  /// True once the soft deadline has passed (latched; false if none set).
  bool soft_expired();

  MemoryBudget& memory() { return memory_; }
  const MemoryBudget& memory() const { return memory_; }

  /// Polls observed by this guard (every poll() while installed counts;
  /// the fuzz property uses it to size its trip-point distribution).
  /// With the cancel_after_polls hook armed the count stops at the trip
  /// point: polls after it only observe the stop, and in a parallel pass
  /// another lane's poll can race the tripping one, so counting them
  /// would make a hooked run's count depend on scheduling.
  std::uint64_t polls() const {
    const std::uint64_t n = polls_.load(std::memory_order_relaxed);
    return cancel_after_polls_ != 0 ? std::min(n, cancel_after_polls_) : n;
  }

  /// The full poll: counts, applies the test hook, propagates a stopped
  /// parent, checks the deadline, returns stopped(). Call through
  /// guard::poll(), not directly.
  bool observe();

  /// Links this guard to an ENCLOSING run's guard: once the parent has
  /// stopped, observe() trips this guard with the parent's reason. The
  /// degradation ladder links each rung guard to the guard that was
  /// active at entry, so RunContext::cancel() — which trips only the
  /// context's own guard — reaches the rung guard currently shadowing
  /// it in the ambient slot (the serve daemon's CANCEL frame and drain
  /// path depend on this). Lifetime contract is the caller's: the
  /// parent must outlive this guard. Propagation is poll-driven and
  /// does not consume extra polls, so poll counts stay deterministic.
  void set_parent(RunGuard* parent) { parent_ = parent; }
  RunGuard* parent() const { return parent_; }

  /// Internal: first-reason-wins transition + obs trip counter
  /// (published into metrics_registry(), i.e. the OWNING request's
  /// registry — not the ambient scope of whichever thread trips).
  void trip(StopReason reason);

  /// The registry trip events attribute to: bound at construction to
  /// the constructing thread's ambient registry (the owning request's;
  /// the global registry when constructed unscoped). A guard created on
  /// a request thread keeps attributing correctly even when cancel()
  /// arrives from a different thread running under a different scope.
  obs::Registry& metrics_registry() const {
    return metrics_ != nullptr ? *metrics_ : obs::Registry::instance();
  }

 private:
  std::atomic<std::uint8_t> reason_{0};
  std::atomic<bool> soft_latched_{false};
  std::atomic<std::uint64_t> polls_{0};
  std::uint64_t cancel_after_polls_ = 0;
  // Steady-clock ns timestamps; 0 = unarmed. Written once before the
  // guard is installed, read by pollers after install.
  std::uint64_t hard_ns_ = 0;
  std::uint64_t soft_ns_ = 0;
  RunGuard* parent_ = nullptr;  // set before install, read by pollers
  obs::Registry* metrics_ = nullptr;  // nullptr → global registry
  MemoryBudget memory_;
};

/// Guard installed on the current thread (nullptr when dormant).
/// Reads the thread's ambient slot — there is no process-wide install
/// slot anymore; workers see a guard only by inheriting the submitting
/// thread's scope (ThreadPool::submit) or installing one themselves.
inline RunGuard* active() {
  return static_cast<RunGuard*>(ambient::get(ambient::kGuardSlot));
}

/// Installs a guard for the current scope; restores the previous one on
/// exit (nesting is allowed — the ladder re-arms per rung). This is the
/// single-slot compatibility shim over the request-scoped machinery:
/// it swaps only the guard slot of the current THREAD, leaving any
/// surrounding RunContext's metrics/trace scope installed. Callers that
/// want full per-request isolation (own metrics registry + tracer) use
/// guard::RunContext / ScopedContext from guard/context.hpp instead.
class ScopedGuard {
 public:
  explicit ScopedGuard(RunGuard& g) : scope_(ambient::kGuardSlot, &g) {}
  ScopedGuard(const ScopedGuard&) = delete;
  ScopedGuard& operator=(const ScopedGuard&) = delete;

 private:
  ambient::SlotScope scope_;
};

/// Non-throwing cancellation point: true when the current execution
/// should stop. The ONLY form allowed inside thread-pool workers.
inline bool poll() noexcept {
  RunGuard* g = active();
  if (g == nullptr) return false;  // dormant path: one TLS load + branch
  return g->observe();
}

/// Throwing cancellation point for serial code and post-join orchestrator
/// checks. `where` names the cancellation point ("sparsify.mark", ...)
/// and lands in the exception message and the trip diagnostics.
void check(const char* where);

/// Charges `bytes` against the installed guard's memory budget (no-op
/// when dormant), throwing BudgetExceeded on overrun; releases on scope
/// exit. Movable so builders can return it alongside the charged array.
class MemCharge {
 public:
  MemCharge() = default;
  MemCharge(std::uint64_t bytes, const char* what);
  ~MemCharge() { reset(); }

  MemCharge(MemCharge&& other) noexcept
      : guard_(other.guard_), bytes_(other.bytes_) {
    other.guard_ = nullptr;
    other.bytes_ = 0;
  }
  MemCharge& operator=(MemCharge&& other) noexcept {
    if (this != &other) {
      reset();
      guard_ = other.guard_;
      bytes_ = other.bytes_;
      other.guard_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }
  MemCharge(const MemCharge&) = delete;
  MemCharge& operator=(const MemCharge&) = delete;

  std::uint64_t bytes() const { return bytes_; }
  void reset();

 private:
  RunGuard* guard_ = nullptr;
  std::uint64_t bytes_ = 0;
};

}  // namespace matchsparse::guard
