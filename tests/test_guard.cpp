// Run-guard core (src/guard/): install slot, polling, deadlines,
// cross-thread cancellation, memory budgets, and the RAII pieces the
// degradation ladder is built from (DESIGN.md §12).
#include "guard/guard.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <thread>

#include "util/thread_pool.hpp"

namespace matchsparse {
namespace {

TEST(GuardCore, DormantPathIsInert) {
  ASSERT_EQ(guard::active(), nullptr);
  EXPECT_FALSE(guard::poll());
  EXPECT_NO_THROW(guard::check("test.site"));
  // MemCharge without an installed guard is a no-op.
  const guard::MemCharge charge(1u << 30, "nothing");
  EXPECT_EQ(charge.bytes(), 0u);
}

TEST(GuardCore, StopReasonNames) {
  EXPECT_STREQ(guard::to_string(guard::StopReason::kNone), "none");
  EXPECT_STREQ(guard::to_string(guard::StopReason::kCancelled), "cancelled");
  EXPECT_STREQ(guard::to_string(guard::StopReason::kDeadline), "deadline");
  EXPECT_STREQ(guard::to_string(guard::StopReason::kBudget), "budget");
}

TEST(GuardCore, ScopedGuardInstallsAndRestores) {
  guard::RunGuard outer;
  {
    const guard::ScopedGuard s1(outer);
    EXPECT_EQ(guard::active(), &outer);
    guard::RunGuard inner;
    {
      const guard::ScopedGuard s2(inner);
      EXPECT_EQ(guard::active(), &inner);  // nesting: ladder rungs re-arm
    }
    EXPECT_EQ(guard::active(), &outer);
  }
  EXPECT_EQ(guard::active(), nullptr);
}

TEST(GuardCore, CancelIsStickyAndObservedByPolls) {
  guard::RunGuard g;
  const guard::ScopedGuard installed(g);
  EXPECT_FALSE(guard::poll());
  g.cancel();
  EXPECT_TRUE(guard::poll());
  EXPECT_EQ(g.stop_reason(), guard::StopReason::kCancelled);
  // First reason wins: a later trip cannot overwrite it.
  g.trip(guard::StopReason::kDeadline);
  EXPECT_EQ(g.stop_reason(), guard::StopReason::kCancelled);
  EXPECT_THROW(guard::check("test.site"), guard::Cancelled);
}

TEST(GuardCore, DeadlineTripsAtPollSite) {
  guard::RunGuard::Limits limits;
  limits.deadline_ms = 0.1;
  guard::RunGuard g(limits);
  const guard::ScopedGuard installed(g);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(guard::poll());
  EXPECT_EQ(g.stop_reason(), guard::StopReason::kDeadline);
  try {
    guard::check("test.deadline.site");
    FAIL() << "check() did not throw";
  } catch (const guard::DeadlineExceeded& e) {
    EXPECT_EQ(e.reason(), guard::StopReason::kDeadline);
    EXPECT_NE(std::string(e.what()).find("test.deadline.site"),
              std::string::npos);
  }
}

TEST(GuardCore, DeadlinePastTheClockNeverTrips) {
  // ms * 1e6 overflows the ns clock: no deadline, not an instant trip.
  for (const double ms : {1e300, std::numeric_limits<double>::infinity()}) {
    guard::RunGuard::Limits limits;
    limits.deadline_ms = ms;
    limits.soft_deadline_ms = ms;
    guard::RunGuard g(limits);
    const guard::ScopedGuard installed(g);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_FALSE(guard::poll()) << ms;
    EXPECT_FALSE(g.soft_expired()) << ms;
    EXPECT_EQ(g.stop_reason(), guard::StopReason::kNone) << ms;
  }
}

TEST(GuardCore, SoftDeadlineLatchesWithoutStopping) {
  guard::RunGuard::Limits limits;
  limits.soft_deadline_ms = 0.1;
  guard::RunGuard g(limits);
  const guard::ScopedGuard installed(g);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(g.soft_expired());
  EXPECT_FALSE(g.stopped());  // soft never stops the run by itself
  EXPECT_FALSE(guard::poll());
}

TEST(GuardCore, CancelAfterPollsHookIsDeterministic) {
  guard::RunGuard::Limits limits;
  limits.cancel_after_polls = 3;
  guard::RunGuard g(limits);
  const guard::ScopedGuard installed(g);
  EXPECT_FALSE(guard::poll());
  EXPECT_FALSE(guard::poll());
  EXPECT_TRUE(guard::poll());  // trips exactly on the 3rd poll
  EXPECT_EQ(g.stop_reason(), guard::StopReason::kCancelled);
  EXPECT_EQ(g.polls(), 3u);
}

TEST(GuardCore, CrossThreadCancelIsSeenByPollingWorkers) {
  guard::RunGuard g;
  const guard::ScopedGuard installed(g);
  std::thread canceller([&g] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    g.cancel();
  });
  // Pool workers use the non-throwing poll and bail cooperatively.
  ThreadPool pool(2);
  std::atomic<int> bailed{0};
  parallel_for(pool, 2, [&](std::size_t) {
    while (!guard::poll()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    bailed.fetch_add(1);
  });
  canceller.join();
  EXPECT_EQ(bailed.load(), 2);
  EXPECT_EQ(g.stop_reason(), guard::StopReason::kCancelled);
}

TEST(MemoryBudget, ChargesReleasesAndTracksPeak) {
  guard::MemoryBudget budget(1000);
  EXPECT_TRUE(budget.try_charge(600));
  EXPECT_TRUE(budget.try_charge(300));
  EXPECT_EQ(budget.used(), 900u);
  EXPECT_FALSE(budget.try_charge(200));  // would exceed; rolled back
  EXPECT_EQ(budget.used(), 900u);
  budget.release(600);
  EXPECT_EQ(budget.used(), 300u);
  EXPECT_TRUE(budget.try_charge(200));  // cap bounds CONCURRENT bytes
  EXPECT_EQ(budget.peak(), 900u);
}

TEST(MemoryBudget, ZeroCapMeansAccountingOnly) {
  guard::MemoryBudget budget(0);
  EXPECT_TRUE(budget.try_charge(UINT64_MAX / 2));
  EXPECT_EQ(budget.peak(), UINT64_MAX / 2);
}

TEST(MemCharge, ReleasesOnScopeExitAndThrowsOnOverrun) {
  guard::RunGuard::Limits limits;
  limits.mem_budget_bytes = 1024;
  guard::RunGuard g(limits);
  const guard::ScopedGuard installed(g);
  {
    const guard::MemCharge charge(512, "array A");
    EXPECT_EQ(g.memory().used(), 512u);
    try {
      const guard::MemCharge too_big(1024, "array B");
      FAIL() << "over-cap charge did not throw";
    } catch (const guard::BudgetExceeded& e) {
      EXPECT_EQ(e.reason(), guard::StopReason::kBudget);
      EXPECT_NE(std::string(e.what()).find("array B"), std::string::npos);
    }
    EXPECT_EQ(g.memory().used(), 512u);  // failed charge fully rolled back
    EXPECT_EQ(g.stop_reason(), guard::StopReason::kBudget);
  }
  EXPECT_EQ(g.memory().used(), 0u);
  EXPECT_EQ(g.memory().peak(), 512u);
}

TEST(MemCharge, MoveTransfersOwnership) {
  guard::RunGuard::Limits limits;
  limits.mem_budget_bytes = 1024;
  guard::RunGuard g(limits);
  const guard::ScopedGuard installed(g);
  guard::MemCharge outer;
  {
    guard::MemCharge inner(256, "moved array");
    outer = std::move(inner);
  }
  EXPECT_EQ(g.memory().used(), 256u);  // survived the source's destruction
  outer.reset();
  EXPECT_EQ(g.memory().used(), 0u);
}

}  // namespace
}  // namespace matchsparse
