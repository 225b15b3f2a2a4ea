// Request-scoped execution contexts (DESIGN.md §14): ambient slot
// resolution, worker inheritance on the shared pool, per-context trip
// attribution, and the headline isolation proof — eight guarded
// pipelines in flight at once on one default_pool(), one cancelled
// mid-run, one budget-tripped, every survivor bit-identical (outcome,
// matching, polls, per-context metrics snapshot) to running alone.
// The whole file is TSan-clean by construction; the context-stress CI
// lane runs it under -fsanitize=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "gen/generators.hpp"
#include "guard/context.hpp"
#include "guard/guard.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace matchsparse {
namespace {

void expect_same_matching(const Matching& a, const Matching& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(a.mate(v), b.mate(v)) << "mates diverge at vertex " << v;
  }
}

TEST(RunContext, IdsAreUniqueAndCurrentContextResolves) {
  EXPECT_EQ(guard::current_context(), nullptr);
  EXPECT_EQ(guard::active(), nullptr);

  guard::RunContext a("req-a");
  guard::RunContext b("req-b");
  a.set_publish_on_destroy(false);
  b.set_publish_on_destroy(false);
  EXPECT_NE(a.id(), b.id());
  EXPECT_EQ(a.label(), "req-a");

  {
    const guard::ScopedContext scope_a(a);
    EXPECT_EQ(guard::current_context(), &a);
    EXPECT_EQ(guard::active(), &a.guard());
    EXPECT_EQ(obs::ambient_registry(), &a.metrics());
    {
      // Nested contexts stack; the inner fully shadows the outer.
      const guard::ScopedContext scope_b(b);
      EXPECT_EQ(guard::current_context(), &b);
      EXPECT_EQ(guard::active(), &b.guard());
      EXPECT_EQ(obs::ambient_registry(), &b.metrics());
    }
    EXPECT_EQ(guard::current_context(), &a);

    // A bare ScopedGuard inside a context swaps ONLY the guard slot —
    // the ladder re-arms per-rung guards this way and must keep writing
    // the enclosing request's metrics.
    guard::RunGuard rung;
    {
      const guard::ScopedGuard installed(rung);
      EXPECT_EQ(guard::active(), &rung);
      EXPECT_EQ(guard::current_context(), &a);
      EXPECT_EQ(obs::ambient_registry(), &a.metrics());
    }
    EXPECT_EQ(guard::active(), &a.guard());
  }
  EXPECT_EQ(guard::current_context(), nullptr);
  EXPECT_EQ(guard::active(), nullptr);
}

TEST(RunContext, MetricsIsolationAndSingleShotPublish) {
  const std::uint64_t global_before =
      obs::Registry::instance().snapshot().counter_value("ctx.test.events");
  {
    guard::RunContext ctx("publisher");
    {
      const guard::ScopedContext scope(ctx);
      obs::counter("ctx.test.events").add(5);
    }
    // The write landed in the request registry, not the global one.
    EXPECT_EQ(ctx.metrics_snapshot().counter_value("ctx.test.events"), 5u);
    EXPECT_EQ(obs::Registry::instance().snapshot().counter_value(
                  "ctx.test.events"),
              global_before);
    ctx.publish();
    ctx.publish();  // idempotent: the second call must not double-count
    EXPECT_EQ(obs::Registry::instance().snapshot().counter_value(
                  "ctx.test.events"),
              global_before + 5);
  }  // destructor must not publish a third time
  EXPECT_EQ(
      obs::Registry::instance().snapshot().counter_value("ctx.test.events"),
      global_before + 5);
}

// Satellite 1: polls and trips attribute to the OWNING context, even
// when the trip arrives from a thread scoped to a different request.
TEST(RunContext, PollAndTripAttributionAcrossTwoContexts) {
  guard::RunContext a("attr-a");
  guard::RunContext b("attr-b");
  a.set_publish_on_destroy(false);
  b.set_publish_on_destroy(false);

  {
    const guard::ScopedContext scope(a);
    for (int i = 0; i < 7; ++i) EXPECT_FALSE(guard::poll());
  }
  EXPECT_EQ(a.guard().polls(), 7u);
  EXPECT_EQ(b.guard().polls(), 0u);

  // A thread running under B's scope cancels A: the trip counter must
  // land in A's registry (the guard binds its registry at construction),
  // not in B's ambient scope.
  std::thread canceller([&] {
    const guard::ScopedContext scope(b);
    a.cancel();
  });
  canceller.join();
  EXPECT_TRUE(a.guard().stopped());
  EXPECT_EQ(a.guard().stop_reason(), guard::StopReason::kCancelled);
  EXPECT_FALSE(b.guard().stopped());
  EXPECT_EQ(a.metrics_snapshot().counter_value("guard.trips.cancelled"), 1u);
  EXPECT_EQ(b.metrics_snapshot().counter_value("guard.trips.cancelled"), 0u);
}

// An unscoped RunGuard keeps the pre-§14 behavior: trips publish to the
// process-wide registry.
TEST(RunContext, UnscopedGuardTripsPublishToGlobalRegistry) {
  const std::uint64_t before =
      obs::Registry::instance().snapshot().counter_value(
          "guard.trips.cancelled");
  guard::RunGuard g;
  g.cancel();
  EXPECT_EQ(obs::Registry::instance().snapshot().counter_value(
                "guard.trips.cancelled"),
            before + 1);
}

// Pool workers inherit the submitting thread's ambient scope: counters
// written and polls observed inside parallel_for land on the request.
TEST(RunContext, DefaultPoolWorkersInheritSubmittingContext) {
  constexpr std::size_t kItems = 64;
  const std::uint64_t global_before =
      obs::Registry::instance().snapshot().counter_value("ctx.test.worker");
  guard::RunContext ctx("pool-inherit");
  ctx.set_publish_on_destroy(false);
  {
    const guard::ScopedContext scope(ctx);
    parallel_for(kItems, [](std::size_t) {
      (void)guard::poll();
      obs::counter("ctx.test.worker").add(1);
    });
  }
  EXPECT_EQ(ctx.metrics_snapshot().counter_value("ctx.test.worker"), kItems);
  EXPECT_EQ(ctx.guard().polls(), kItems);
  EXPECT_EQ(
      obs::Registry::instance().snapshot().counter_value("ctx.test.worker"),
      global_before);
}

// Two contexts driving the SAME pool concurrently: each request's
// workers poll that request's guard and write that request's registry.
TEST(RunContext, TwoConcurrentParallelForsStayIsolated) {
  constexpr std::size_t kItems = 512;
  std::atomic<int> ready{0};
  const auto run_one = [&](guard::RunContext& ctx, const char* name) {
    const guard::ScopedContext scope(ctx);
    ready.fetch_add(1, std::memory_order_acq_rel);
    while (ready.load(std::memory_order_acquire) < 2) {
    }
    parallel_for(kItems, [name](std::size_t) {
      (void)guard::poll();
      obs::counter(name).add(1);
    });
  };
  guard::RunContext a("pair-a");
  guard::RunContext b("pair-b");
  a.set_publish_on_destroy(false);
  b.set_publish_on_destroy(false);
  std::thread ta([&] { run_one(a, "ctx.test.pair"); });
  std::thread tb([&] { run_one(b, "ctx.test.pair"); });
  ta.join();
  tb.join();
  EXPECT_EQ(a.metrics_snapshot().counter_value("ctx.test.pair"), kItems);
  EXPECT_EQ(b.metrics_snapshot().counter_value("ctx.test.pair"), kItems);
  EXPECT_EQ(a.guard().polls(), kItems);
  EXPECT_EQ(b.guard().polls(), kItems);
}

// The headline isolation proof. Eight guarded pipelines run
// concurrently, all fanning their sparsify stage out on the one shared
// default_pool(); request 3 is cancelled mid-run, request 5 trips a
// 1-byte memory budget into the maximal fallback, the other six carry
// generous independent deadlines. Every survivor must reproduce its
// solo execution bit-for-bit: status, matching, poll count, and the
// request-local metrics snapshot.
TEST(RunContext, EightConcurrentGuardedPipelines) {
  constexpr int kRequests = 8;
  constexpr int kCancelIdx = 3;
  constexpr int kBudgetIdx = 5;

  struct Request {
    ApproxMatchingConfig cfg;
    RunLimits limits;
    RunOutcome solo;
    std::string solo_metrics;
    RunOutcome concurrent;
    std::string concurrent_metrics;
  };
  std::vector<Request> requests(kRequests);

  // Dense enough (avg degree ~40) that vertices exceed the low-degree
  // cutoff 2Δ and the sparsifier actually SAMPLES — otherwise every
  // vertex keeps its whole neighborhood and all eight seeds would
  // produce one identical run.
  Rng graph_rng(17);
  const Graph g = gen::unit_disk(
      400, gen::unit_disk_radius_for_degree(400, 40.0), graph_rng);
  for (int i = 0; i < kRequests; ++i) {
    Request& r = requests[i];
    r.cfg.beta = 1;
    r.cfg.eps = 0.5;
    r.cfg.seed = 1000 + static_cast<std::uint64_t>(i);  // distinct outputs
    r.cfg.threads = 2;  // fan out on the shared pool
    if (i == kBudgetIdx) {
      r.limits.mem_budget_bytes = 1;  // every rung trips; maximal fallback
    } else if (i != kCancelIdx) {
      r.limits.deadline_ms = 60000.0;  // armed but never tripping
    }
  }

  // Solo baselines (sequential, scratch contexts, nothing published).
  for (int i = 0; i < kRequests; ++i) {
    Request& r = requests[i];
    guard::RunContext ctx("solo-" + std::to_string(i));
    ctx.set_publish_on_destroy(false);
    const guard::ScopedContext scope(ctx);
    r.solo = approx_maximum_matching_guarded(g, r.cfg, r.limits);
    r.solo_metrics = ctx.metrics_snapshot().to_json();
  }
  ASSERT_GT(requests[kCancelIdx].solo.polls, 2u);
  // Place the cancel mid-run (the solo baseline for the victim is then
  // re-taken with the SAME limits so the comparison below is apples to
  // apples — a cancelled run against a cancelled solo run).
  requests[kCancelIdx].limits.cancel_after_polls =
      requests[kCancelIdx].solo.polls / 2;
  {
    Request& victim = requests[kCancelIdx];
    guard::RunContext ctx("solo-cancel");
    ctx.set_publish_on_destroy(false);
    const guard::ScopedContext scope(ctx);
    victim.solo = approx_maximum_matching_guarded(g, victim.cfg,
                                                  victim.limits);
    victim.solo_metrics = ctx.metrics_snapshot().to_json();
    ASSERT_EQ(victim.solo.status, RunStatus::kCancelled);
  }
  ASSERT_EQ(requests[kBudgetIdx].solo.status, RunStatus::kDegradedMaximal);
  for (int i = 0; i < kRequests; ++i) {
    if (i == kCancelIdx || i == kBudgetIdx) continue;
    ASSERT_EQ(requests[i].solo.status, RunStatus::kOk) << "request " << i;
  }

  // All eight at once, started through a barrier so the windows overlap.
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    threads.emplace_back([&, i] {
      Request& r = requests[i];
      guard::RunContext ctx("concurrent-" + std::to_string(i));
      ctx.set_publish_on_destroy(false);
      const guard::ScopedContext scope(ctx);
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (ready.load(std::memory_order_acquire) < kRequests) {
      }
      r.concurrent = approx_maximum_matching_guarded(g, r.cfg, r.limits);
      r.concurrent_metrics = ctx.metrics_snapshot().to_json();
    });
  }
  for (std::thread& t : threads) t.join();

  for (int i = 0; i < kRequests; ++i) {
    Request& r = requests[i];
    EXPECT_EQ(r.concurrent.status, r.solo.status) << "request " << i;
    EXPECT_EQ(r.concurrent.stop_reason, r.solo.stop_reason)
        << "request " << i;
    EXPECT_EQ(r.concurrent.polls, r.solo.polls) << "request " << i;
    EXPECT_EQ(r.concurrent.guarantee, r.solo.guarantee) << "request " << i;
    expect_same_matching(r.concurrent.result.matching,
                         r.solo.result.matching);
    EXPECT_EQ(r.concurrent_metrics, r.solo_metrics)
        << "request " << i << ": per-context metrics diverge from solo";
  }
  EXPECT_EQ(requests[kCancelIdx].concurrent.status, RunStatus::kCancelled);
  EXPECT_EQ(requests[kBudgetIdx].concurrent.status,
            RunStatus::kDegradedMaximal);
  // Distinct seeds really did produce distinct work — the identity
  // checks above were not comparing eight copies of one run. (The
  // metrics snapshots cannot serve here: mark totals are Σ min(deg, Δ),
  // seed-independent by construction.)
  VertexId diverging = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (requests[0].concurrent.result.matching.mate(v) !=
        requests[1].concurrent.result.matching.mate(v)) {
      ++diverging;
    }
  }
  EXPECT_GT(diverging, 0u);
}

}  // namespace
}  // namespace matchsparse
