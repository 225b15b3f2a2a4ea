#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>

#include "core/api.hpp"
#include "gen/generators.hpp"
#include "guard/guard.hpp"
#include "matching/blossom.hpp"
#include "sparsify/sparsifier.hpp"
#include "util/thread_pool.hpp"

namespace matchsparse {
namespace {

TEST(ParallelSparsifier, ThreadCountInvariant) {
  Rng grng(1);
  const Graph g = gen::erdos_renyi(400, 40.0, grng);
  const EdgeList one = sparsify(g, 5, 99, 1).edge_list();
  for (std::size_t threads : {2u, 3u, 8u, 16u}) {
    EXPECT_EQ(sparsify(g, 5, 99, threads).edge_list(), one)
        << threads << " threads";
  }
}

TEST(ParallelSparsifier, SeedChangesOutput) {
  Rng grng(2);
  const Graph g = gen::complete_graph(200);
  EXPECT_NE(sparsify_edges(g, 4, 1), sparsify_edges(g, 4, 2));
}

TEST(ParallelSparsifier, SameInvariantsAsSequential) {
  Rng grng(3);
  const Graph g = gen::complete_graph(300);
  const VertexId delta = 6;
  const EdgeList edges = sparsify_edges(g, delta, 7);
  EXPECT_LE(edges.size(),
            static_cast<std::size_t>(2 * delta) * g.num_vertices());
  for (const Edge& e : edges) EXPECT_TRUE(g.has_edge(e.u, e.v));
  const Graph gd = Graph::from_edges(g.num_vertices(), edges);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_GE(gd.degree(v), std::min(g.degree(v), delta));
  }
}

TEST(ParallelSparsifier, QualityMatchesSequentialStatistically) {
  const Graph g = gen::complete_graph(400);
  const VertexId delta = 8;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const EdgeList edges = sparsify_edges(g, delta, seed);
    const Graph gd = Graph::from_edges(400, edges);
    EXPECT_EQ(blossom_mcm(gd).size(), 200u) << "seed " << seed;
  }
}

TEST(ParallelSparsifier, EmptyAndTinyGraphs) {
  const Graph empty = Graph::from_edges(0, {});
  EXPECT_TRUE(sparsify_edges(empty, 3, 1).empty());
  const Graph single = Graph::from_edges(2, {{0, 1}});
  EXPECT_EQ(sparsify_edges(single, 3, 1).size(), 1u);
}

TEST(ParallelSparsifier, ChargesTheMarkListsToTheGuard) {
  // K_2000 at Δ = 37: every vertex marks 37 edges, 74,000 marks in all.
  const Graph g = gen::complete_graph(2000);
  const VertexId delta = 37;
  const std::uint64_t mark_bytes =
      std::uint64_t{2000} * delta * sizeof(Edge);
  for (const std::size_t lanes : {1u, 4u}) {
    const std::string label = std::to_string(lanes) + " lanes";
    const Graph unguarded = sparsify(g, delta, 5, lanes);
    {
      // The mark lists are the build's first charge, so one byte short
      // of them trips there, before any list is allocated.
      guard::RunGuard::Limits limits;
      limits.mem_budget_bytes = mark_bytes - 1;
      guard::RunGuard run_guard(limits);
      const guard::ScopedGuard installed(run_guard);
      try {
        (void)sparsify(g, delta, 5, lanes);
        ADD_FAILURE() << label << ": no budget trip";
      } catch (const guard::BudgetExceeded& e) {
        EXPECT_NE(std::string(e.what()).find("sparsifier mark buffer"),
                  std::string::npos)
            << label << ": " << e.what();
      }
    }
    guard::RunGuard::Limits limits;
    limits.mem_budget_bytes = 64ull << 20;
    guard::RunGuard run_guard(limits);
    const guard::ScopedGuard installed(run_guard);
    EXPECT_EQ(sparsify(g, delta, 5, lanes).edge_list(),
              unguarded.edge_list())
        << label;
    // The marks stay charged through the CSR build.
    EXPECT_GT(run_guard.memory().peak(), mark_bytes) << label;
    EXPECT_EQ(run_guard.memory().used(), 0u) << label;
  }
}

TEST(ParallelSparsifier, OneLaneBuildRunsOnTheCallingThread) {
  // With every default_pool() worker held by another caller's task, a
  // one-lane build must still finish: it submits nothing to the pool.
  ThreadPool& pool = default_pool();
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::atomic<std::size_t> holding{0};
  for (std::size_t w = 0; w < pool.size(); ++w) {
    pool.submit([released, &holding] {
      holding.fetch_add(1);
      released.wait();
    });
  }
  while (holding.load() < pool.size()) std::this_thread::yield();

  const Graph g = gen::complete_graph(500);
  ApproxMatchingConfig cfg;
  cfg.beta = 4;
  cfg.threads = 1;
  ASSERT_FALSE(sparsifier_is_graph(g, cfg));
  auto build = std::async(std::launch::async, [&] {
    return build_matching_sparsifier(g, cfg).num_edges();
  });
  const std::future_status status = build.wait_for(std::chrono::seconds(10));
  release.set_value();
  EXPECT_EQ(status, std::future_status::ready);
  EXPECT_GT(build.get(), 0u);
  pool.wait_idle();
}

}  // namespace
}  // namespace matchsparse
