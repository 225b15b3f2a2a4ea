#include <gtest/gtest.h>

#include "gen/generators.hpp"
#include "matching/blossom.hpp"
#include "matching/bounded_aug.hpp"
#include "util/rng.hpp"

namespace matchsparse {
namespace {

// Slicing must not change the computation: at every budget the resumable
// matcher returns exactly the mates of the one-shot approx_mcm, which runs
// the same solver in one go.
void expect_same_as_one_shot(const Graph& g, double eps, const char* what) {
  const Matching one_shot = approx_mcm(g, eps);
  const VertexId opt = blossom_mcm(g).size();
  for (const std::uint64_t budget :
       {std::uint64_t{1}, std::uint64_t{64}, ~std::uint64_t{0}}) {
    ResumableApproxMcm resumable(g, eps);
    while (!resumable.finished()) resumable.advance(budget);
    const Matching sliced = resumable.result();
    EXPECT_TRUE(sliced.is_valid(g)) << what << " budget " << budget;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(sliced.mate(v), one_shot.mate(v))
          << what << " budget " << budget << " vertex " << v;
    }
    // Same guarantee as the one-shot matcher.
    EXPECT_GE(static_cast<double>(sliced.size()) * (1.0 + eps),
              static_cast<double>(opt))
        << what << " budget " << budget;
  }
}

TEST(Resumable, MatchesOneShotResult) {
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    expect_same_as_one_shot(gen::erdos_renyi(100, 6.0, rng), 0.2, "er");
  }
  for (int trial = 0; trial < 5; ++trial) {
    expect_same_as_one_shot(
        gen::line_graph(gen::erdos_renyi(50, 4.0, rng)), 0.2, "line");
  }
  for (int trial = 0; trial < 5; ++trial) {
    expect_same_as_one_shot(
        gen::unit_disk(200, gen::unit_disk_radius_for_degree(200, 8.0), rng),
        0.2, "disk");
  }
}

TEST(Resumable, LastSweepEndsPastThePreviousSweepsLastAugmentingRoot) {
  // The 7-vertex graph of the ApproxMcm test of the same name: phase 1's
  // second sweep ends at root 3, so the failing search from vertex 6 runs
  // once and the cursor takes no step past root 3. A full second sweep
  // would cost 46 work units.
  const Graph g = Graph::from_edges(
      7, {{0, 1}, {0, 2}, {1, 3}, {4, 5}, {4, 6}, {5, 6}});
  ResumableApproxMcm resumable(g, 0.5);
  resumable.advance(~std::uint64_t{0});
  ASSERT_TRUE(resumable.finished());
  EXPECT_EQ(resumable.work(), 34u);
  const Matching m = resumable.result();
  const Matching one_shot = approx_mcm(g, 0.5);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(m.mate(v), one_shot.mate(v)) << "vertex " << v;
  }
}

TEST(Resumable, AdvanceRespectsBudgetApproximately) {
  Rng rng(2);
  const Graph g = gen::erdos_renyi(500, 10.0, rng);
  ResumableApproxMcm resumable(g, 0.3);
  while (!resumable.finished()) {
    const std::uint64_t done = resumable.advance(100);
    // Overshoot is bounded by one atomic step (one search); a search
    // touches at most O(m) entries but typically far less. Just require
    // the call returns and makes progress.
    EXPECT_GT(done + (resumable.finished() ? 1 : 0), 0u);
  }
  EXPECT_GT(resumable.work(), 0u);
}

TEST(Resumable, TinyBudgetStillTerminates) {
  Rng rng(3);
  const Graph g = gen::erdos_renyi(60, 4.0, rng);
  ResumableApproxMcm resumable(g, 0.25);
  std::size_t calls = 0;
  while (!resumable.finished()) {
    resumable.advance(1);
    ASSERT_LT(++calls, 1u << 20);
  }
  EXPECT_TRUE(resumable.result().is_valid(g));
}

TEST(Resumable, EmptyGraphFinishesImmediately) {
  const Graph g = Graph::from_edges(0, {});
  ResumableApproxMcm resumable(g, 0.5);
  EXPECT_TRUE(resumable.finished());
  EXPECT_EQ(resumable.result().size(), 0u);
}

TEST(Resumable, ResultBeforeFinishAborts) {
  Rng rng(4);
  const Graph g = gen::erdos_renyi(50, 5.0, rng);
  ResumableApproxMcm resumable(g, 0.3);
  EXPECT_DEATH((void)resumable.result(), "before the computation finished");
}

TEST(Resumable, WorkIsMonotone) {
  Rng rng(5);
  const Graph g = gen::erdos_renyi(200, 8.0, rng);
  ResumableApproxMcm resumable(g, 0.3);
  std::uint64_t prev = 0;
  while (!resumable.finished()) {
    resumable.advance(50);
    EXPECT_GE(resumable.work(), prev);
    prev = resumable.work();
  }
}

}  // namespace
}  // namespace matchsparse
