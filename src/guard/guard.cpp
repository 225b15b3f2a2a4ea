#include "guard/guard.hpp"

#include <chrono>
#include <limits>

#include "obs/metrics.hpp"
#include "util/common.hpp"

namespace matchsparse::guard {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The absolute steady-clock time `ms` after `start`, or 0 (none) when
/// `ms` is not positive or the sum would not fit the clock's range: a
/// deadline no clock reading can reach is no deadline, +inf included.
std::uint64_t deadline_ns(std::uint64_t start, double ms) {
  if (!(ms > 0.0)) return 0;
  const auto span = saturating_cast<std::uint64_t>(ms * 1e6);
  if (span > std::numeric_limits<std::uint64_t>::max() - start) return 0;
  return start + span;
}

/// Trip-event counters (one add per run at most — the polls themselves
/// are never counted into the registry; they are too hot). Publishes
/// into the guard's BOUND registry, not the tripping thread's ambient
/// scope: cancel() may arrive from a thread serving a different request
/// (or none), and the event belongs to the run being stopped.
void publish_trip(StopReason reason, obs::Registry& registry) {
  switch (reason) {
    case StopReason::kCancelled:
      registry.counter("guard.trips.cancelled").add(1);
      break;
    case StopReason::kDeadline:
      registry.counter("guard.trips.deadline").add(1);
      break;
    case StopReason::kBudget:
      registry.counter("guard.trips.budget").add(1);
      break;
    case StopReason::kNone:
      break;
  }
}

}  // namespace

const char* to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kNone:
      return "none";
    case StopReason::kCancelled:
      return "cancelled";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kBudget:
      return "budget";
  }
  return "unknown";
}

bool MemoryBudget::try_charge(std::uint64_t bytes) {
  const std::uint64_t after =
      used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (cap_ != 0 && after > cap_) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
    return false;
  }
  // Racy max is fine: peak is telemetry, and concurrent charges both
  // retry until the stored peak is no smaller than what they observed.
  std::uint64_t prev = peak_.load(std::memory_order_relaxed);
  while (after > prev &&
         !peak_.compare_exchange_weak(prev, after,
                                      std::memory_order_relaxed)) {
  }
  return true;
}

void MemoryBudget::release(std::uint64_t bytes) {
  used_.fetch_sub(bytes, std::memory_order_relaxed);
}

RunGuard::RunGuard(const Limits& limits)
    : RunGuard(limits, obs::ambient_registry()) {}

RunGuard::RunGuard(const Limits& limits, obs::Registry* metrics)
    : cancel_after_polls_(limits.cancel_after_polls),
      metrics_(metrics),
      memory_(limits.mem_budget_bytes) {
  const std::uint64_t start = now_ns();
  hard_ns_ = deadline_ns(start, limits.deadline_ms);
  soft_ns_ = deadline_ns(start, limits.soft_deadline_ms);
}

void RunGuard::trip(StopReason reason) {
  std::uint8_t expected = 0;
  if (reason_.compare_exchange_strong(expected,
                                      static_cast<std::uint8_t>(reason),
                                      std::memory_order_relaxed)) {
    // The CAS winner publishes exactly once, into the owning run's
    // registry (correct attribution even for cross-thread cancels).
    publish_trip(reason, metrics_registry());
  }
}

void RunGuard::cancel() { trip(StopReason::kCancelled); }

bool RunGuard::soft_expired() {
  if (soft_latched_.load(std::memory_order_relaxed)) return true;
  if (soft_ns_ != 0 && now_ns() >= soft_ns_) {
    soft_latched_.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool RunGuard::observe() {
  const std::uint64_t n = polls_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (cancel_after_polls_ != 0 && n >= cancel_after_polls_) {
    trip(StopReason::kCancelled);
  }
  if (parent_ != nullptr && parent_->stopped()) {
    trip(parent_->stop_reason());
  }
  if (stopped()) return true;
  if (hard_ns_ != 0 && now_ns() >= hard_ns_) {
    trip(StopReason::kDeadline);
    return true;
  }
  return false;
}

void check(const char* where) {
  RunGuard* g = active();
  if (g == nullptr) return;
  if (!g->observe()) return;
  switch (g->stop_reason()) {
    case StopReason::kCancelled:
      throw Cancelled(where);
    case StopReason::kBudget:
      // The budget overrun was detected at a charge site which already
      // threw BudgetExceeded with the exact figures; a later check()
      // seeing the sticky reason reports the cancellation point instead.
      throw Interrupted(StopReason::kBudget,
                        std::string("memory budget exhausted at ") + where);
    case StopReason::kDeadline:
    case StopReason::kNone:  // unreachable: observe() returned true
      throw DeadlineExceeded(where);
  }
}

MemCharge::MemCharge(std::uint64_t bytes, const char* what)
    : guard_(active()), bytes_(bytes) {
  if (guard_ == nullptr || bytes_ == 0) {
    guard_ = nullptr;
    bytes_ = 0;  // dormant: nothing charged, nothing to release or report
    return;
  }
  if (!guard_->memory().try_charge(bytes_)) {
    MemoryBudget& budget = guard_->memory();
    guard_->trip(StopReason::kBudget);
    const std::uint64_t requested = bytes_;
    guard_ = nullptr;  // nothing to release
    bytes_ = 0;
    throw BudgetExceeded(what, requested, budget.used(), budget.cap());
  }
}

void MemCharge::reset() {
  if (guard_ != nullptr && bytes_ != 0) guard_->memory().release(bytes_);
  guard_ = nullptr;
  bytes_ = 0;
}

}  // namespace matchsparse::guard
