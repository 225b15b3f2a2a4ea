// The degradation ladder (core/api.cpp): deadline / budget / cancel
// outcomes, the 2x-deadline termination bound, and the bit-identity of
// unguarded and guard-dormant runs (DESIGN.md §12).
#include <gtest/gtest.h>

#include <chrono>
#include <limits>

#include "core/api.hpp"
#include "gen/generators.hpp"
#include "matching/blossom.hpp"
#include "matching/greedy.hpp"
#include "matching/hopcroft_karp.hpp"
#include "util/timer.hpp"

namespace matchsparse {
namespace {

Graph unit_disk_instance(VertexId n, std::uint64_t seed) {
  Rng rng(seed);
  return gen::unit_disk(n, gen::unit_disk_radius_for_degree(n, 8.0), rng);
}

void expect_same_matching(const Matching& a, const Matching& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(a.mate(v), b.mate(v)) << "mates diverge at vertex " << v;
  }
}

ApproxMatchingConfig small_cfg() {
  ApproxMatchingConfig cfg;
  cfg.beta = 5;
  cfg.eps = 0.3;
  cfg.seed = 11;
  return cfg;
}

TEST(GuardedApi, NoLimitsIsBitIdenticalToUnguarded) {
  const Graph g = unit_disk_instance(400, 3);
  const ApproxMatchingConfig cfg = small_cfg();
  const ApproxMatchingResult plain = approx_maximum_matching(g, cfg);
  const RunOutcome guarded = approx_maximum_matching_guarded(g, cfg);
  EXPECT_EQ(guarded.status, RunStatus::kOk);
  EXPECT_EQ(guarded.stop_reason, guard::StopReason::kNone);
  EXPECT_FALSE(guarded.partial);
  EXPECT_DOUBLE_EQ(guarded.eps_effective, cfg.eps);
  EXPECT_DOUBLE_EQ(guarded.guarantee, 1.0 + cfg.eps);
  EXPECT_GT(guarded.polls, 0u);
  expect_same_matching(plain.matching, guarded.result.matching);
}

TEST(GuardedApi, ArmedUntrippedGuardMatchesDormantOutput) {
  // An installed guard that never trips must not change the answer. The
  // instance is sized so the marked edge list exceeds the preemptible
  // sort's chunk size (64k), pinning that the chunked sort+merge path
  // produces the same sorted edge set as the dormant single std::sort.
  const Graph g = unit_disk_instance(20000, 11);
  ApproxMatchingConfig cfg = small_cfg();
  const ApproxMatchingResult plain = approx_maximum_matching(g, cfg);
  RunLimits limits;
  limits.deadline_ms = 1e9;  // armed, never expires
  const RunOutcome guarded = approx_maximum_matching_guarded(g, cfg, limits);
  ASSERT_EQ(guarded.status, RunStatus::kOk);
  EXPECT_EQ(guarded.stop_reason, guard::StopReason::kNone);
  expect_same_matching(plain.matching, guarded.result.matching);
}

TEST(GuardedApi, DeadlinePastTheClockIsNoDeadline) {
  const Graph g = unit_disk_instance(400, 3);
  const ApproxMatchingConfig cfg = small_cfg();
  const ApproxMatchingResult plain = approx_maximum_matching(g, cfg);
  for (const double ms : {1e300, std::numeric_limits<double>::infinity()}) {
    RunLimits limits;
    limits.deadline_ms = ms;
    const RunOutcome out = approx_maximum_matching_guarded(g, cfg, limits);
    ASSERT_EQ(out.status, RunStatus::kOk) << ms << ": " << out.detail;
    EXPECT_EQ(out.stop_reason, guard::StopReason::kNone);
    expect_same_matching(plain.matching, out.result.matching);
  }
}

TEST(GuardedApi, OutcomeReportsLemma22Floor) {
  const Graph g = unit_disk_instance(300, 5);
  const RunOutcome out = approx_maximum_matching_guarded(g, small_cfg());
  ASSERT_EQ(out.status, RunStatus::kOk);
  EXPECT_EQ(out.size_floor, maximum_matching_floor(g.num_non_isolated(), 5));
  // The reported floor must actually hold for the computed matching.
  EXPECT_GE(out.result.matching.size(), out.size_floor);
}

TEST(GuardedApi, CancellationReturnsCleanEmptyOutcome) {
  const Graph g = unit_disk_instance(400, 3);
  const ApproxMatchingConfig cfg = small_cfg();
  RunLimits limits;
  limits.cancel_after_polls = 2;
  const RunOutcome out = approx_maximum_matching_guarded(g, cfg, limits);
  EXPECT_EQ(out.status, RunStatus::kCancelled);
  EXPECT_EQ(out.stop_reason, guard::StopReason::kCancelled);
  EXPECT_TRUE(out.partial);
  EXPECT_DOUBLE_EQ(out.guarantee, 0.0);
  EXPECT_TRUE(out.result.matching.is_valid(g));
  // Immediate re-run: cancellation left no residue.
  const RunOutcome rerun = approx_maximum_matching_guarded(g, cfg);
  EXPECT_EQ(rerun.status, RunStatus::kOk);
  expect_same_matching(approx_maximum_matching(g, cfg).matching,
                       rerun.result.matching);
}

TEST(GuardedApi, BudgetPressureWalksLadderToMaximalFallback) {
  const Graph g = unit_disk_instance(500, 7);
  RunLimits limits;
  limits.mem_budget_bytes = 64;  // below any big-array charge
  const RunOutcome out = approx_maximum_matching_guarded(g, small_cfg(),
                                                         limits);
  EXPECT_EQ(out.status, RunStatus::kDegradedMaximal);
  EXPECT_EQ(out.stop_reason, guard::StopReason::kBudget);
  EXPECT_FALSE(out.partial);
  EXPECT_DOUBLE_EQ(out.guarantee, 2.0);
  EXPECT_DOUBLE_EQ(out.eps_effective, 1.0);
  EXPECT_TRUE(out.result.matching.is_valid(g));
  EXPECT_TRUE(out.result.matching.is_maximal(g));
  // The completed fallback is greedy CSR-order maximal — exactly the
  // unguarded baseline.
  expect_same_matching(greedy_maximal_matching(g), out.result.matching);
  // And the advertised guarantees hold against the exact optimum.
  const Matching opt = blossom_mcm(g);
  EXPECT_GE(out.result.matching.size(), maximal_matching_floor(
                                            g.num_non_isolated(), 5));
  EXPECT_EQ(out.size_floor, maximal_matching_floor(g.num_non_isolated(), 5));
  EXPECT_GE(2 * out.result.matching.size(), opt.size());  // 2-approx
}

TEST(GuardedApi, IdentityRegimeChargesOnlyTheMatcher) {
  // Max degree <= 2Δ: G_Δ is g, so the run makes no copy and its only
  // charge is the matcher's arrays. A budget between those arrays and
  // g's CSR bytes therefore completes at full quality.
  const VertexId n = 2000;
  Rng rng(17);
  const Graph g =
      gen::unit_disk(n, gen::unit_disk_radius_for_degree(n, 20.0), rng);
  const ApproxMatchingConfig cfg = small_cfg();
  ASSERT_TRUE(sparsifier_is_graph(g, cfg));
  ASSERT_FALSE(two_color(g).bipartite);  // the matcher is approx_mcm
  const std::uint64_t matcher = 36ull * n;  // nine 4-byte arrays
  const std::uint64_t csr =
      (static_cast<std::uint64_t>(n) + 1) * sizeof(EdgeIndex) +
      2 * static_cast<std::uint64_t>(g.num_edges()) * sizeof(VertexId);
  ASSERT_LT(matcher, csr);
  RunLimits limits;
  limits.mem_budget_bytes = (matcher + csr) / 2;
  const RunOutcome out = approx_maximum_matching_guarded(g, cfg, limits);
  EXPECT_EQ(out.status, RunStatus::kOk) << out.detail;
  EXPECT_EQ(out.mem_peak_bytes, matcher);
  expect_same_matching(approx_maximum_matching(g, cfg).matching,
                       out.result.matching);
}

TEST(GuardedApi, MaximalFallbackChargesNothing) {
  // A 1-byte budget admits no charge, so every ε rung trips (on the
  // identity regime's matcher arrays first). The fallback completes only
  // because it charges nothing; a refused charge is not recorded, so
  // the peak stays 0.
  const Graph g = unit_disk_instance(500, 7);
  ASSERT_TRUE(sparsifier_is_graph(g, small_cfg()));
  RunLimits limits;
  limits.mem_budget_bytes = 1;
  const RunOutcome out = approx_maximum_matching_guarded(g, small_cfg(),
                                                         limits);
  EXPECT_EQ(out.status, RunStatus::kDegradedMaximal);
  EXPECT_EQ(out.stop_reason, guard::StopReason::kBudget);
  EXPECT_FALSE(out.partial);
  EXPECT_EQ(out.mem_peak_bytes, 0u);
  EXPECT_NE(out.detail.find("charging matching.aug arrays"),
            std::string::npos)
      << out.detail;
  expect_same_matching(greedy_maximal_matching(g), out.result.matching);
}

TEST(GuardedApi, DegradeOffFailsInsteadOfRetrying) {
  const Graph g = unit_disk_instance(400, 3);
  RunLimits limits;
  limits.mem_budget_bytes = 64;
  limits.degrade = RunLimits::Degrade::kOff;
  const RunOutcome out = approx_maximum_matching_guarded(g, small_cfg(),
                                                         limits);
  EXPECT_EQ(out.status, RunStatus::kFailed);
  EXPECT_EQ(out.stop_reason, guard::StopReason::kBudget);
  EXPECT_TRUE(out.partial);
  EXPECT_TRUE(out.result.matching.is_valid(g));
  EXPECT_EQ(out.result.matching.size(), 0u);
}

TEST(GuardedApi, DegradeEpsStopsBeforeMaximalFallback) {
  const Graph g = unit_disk_instance(400, 3);
  RunLimits limits;
  limits.mem_budget_bytes = 64;  // every eps rung trips too
  limits.degrade = RunLimits::Degrade::kEps;
  const RunOutcome out = approx_maximum_matching_guarded(g, small_cfg(),
                                                         limits);
  EXPECT_EQ(out.status, RunStatus::kFailed);  // ladder exhausted, no fallback
  EXPECT_TRUE(out.partial);
}

TEST(GuardedApi, AggressiveDeadlineTerminatesWithinTwiceTheBudget) {
  // A deliberately oversized instance for the deadline: the ladder must
  // hand back a degraded outcome, and the whole guarded call is bounded
  // by deadline (ε rungs, shared window) + deadline (fallback window).
  // The wall-clock assertion is deliberately slack (scheduler noise on
  // loaded CI runners); the CI guard-stress job pins the hard 2x bound
  // with `timeout` on a 10x-oversized CLI run.
  const Graph g = unit_disk_instance(100000, 9);
  ApproxMatchingConfig cfg = small_cfg();
  cfg.eps = 0.05;
  RunLimits limits;
  limits.deadline_ms = 25.0;
  WallTimer timer;
  const RunOutcome out = approx_maximum_matching_guarded(g, cfg, limits);
  const double elapsed_ms = timer.seconds() * 1e3;
  EXPECT_TRUE(out.degraded()) << to_string(out.status);
  EXPECT_EQ(out.stop_reason, guard::StopReason::kDeadline);
  EXPECT_TRUE(out.result.matching.is_valid(g));
  EXPECT_LT(elapsed_ms, 2.0 * limits.deadline_ms + 250.0);
  if (out.status == RunStatus::kDegradedMaximal && !out.partial) {
    EXPECT_TRUE(out.result.matching.is_maximal(g));
    EXPECT_GE(out.result.matching.size(),
              maximal_matching_floor(g.num_non_isolated(), 5));
  }
}

TEST(GuardedApi, DistPipelineDegradesCleanlyUnderGuard) {
  const Graph g = unit_disk_instance(600, 13);
  dist::DistributedMatchingOptions opt;
  opt.beta = 5;
  opt.eps = 0.3;

  // Unguarded reference run.
  const auto clean = dist::distributed_approx_matching(g, opt, 21);
  ASSERT_TRUE(clean.all_stages_completed());

  // A pre-tripped guard: the engine breaks every round loop immediately
  // and the pipeline returns a valid partial result instead of throwing.
  guard::RunGuard run_guard;
  run_guard.cancel();
  dist::DistributedMatchingResult partial;
  {
    const guard::ScopedGuard installed(run_guard);
    partial = dist::distributed_approx_matching(g, opt, 21);
  }
  EXPECT_FALSE(partial.all_stages_completed());
  EXPECT_TRUE(partial.matching.is_valid(g));
  EXPECT_LE(partial.matching.size(), clean.matching.size());

  // The guard uninstalled, the same engine stack must be re-runnable and
  // reproduce the reference bit-for-bit.
  const auto rerun = dist::distributed_approx_matching(g, opt, 21);
  ASSERT_TRUE(rerun.all_stages_completed());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(rerun.matching.mate(v), clean.matching.mate(v));
  }
}

}  // namespace
}  // namespace matchsparse
