// The parallel sparsify→CSR pipeline: thread-count determinism of the
// sharded marking (the order-independence claim of the per-vertex
// mix64(seed, v) substreams), the parallel CSR builders, the fused
// sparsify_parallel(), and the per-shard probe accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "gen/generators.hpp"
#include "sparsify/sparsifier.hpp"
#include "util/thread_pool.hpp"

namespace matchsparse {
namespace {

std::vector<std::size_t> regression_thread_counts() {
  return {1, 2, 7,
          std::max<std::size_t>(1, std::thread::hardware_concurrency())};
}

// Structural equality of two CSR graphs: same vertex count, offsets
// (degrees) and sorted adjacency — byte-identical public state.
void expect_identical(const Graph& a, const Graph& b, const char* label) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices()) << label;
  EXPECT_EQ(a.num_edges(), b.num_edges()) << label;
  EXPECT_EQ(a.max_degree(), b.max_degree()) << label;
  EXPECT_EQ(a.num_non_isolated(), b.num_non_isolated()) << label;
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(a.degree(v), b.degree(v)) << label << " vertex " << v;
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    for (std::size_t i = 0; i < na.size(); ++i) {
      ASSERT_EQ(na[i], nb[i]) << label << " vertex " << v << " slot " << i;
    }
  }
}

TEST(ParallelPipeline, MarkedEdgesIdenticalAcrossThreadCounts) {
  Rng grng(17);
  const Graph g = gen::erdos_renyi(500, 30.0, grng);
  const EdgeList reference = sparsify_edges_parallel(g, 5, 1234, 1);
  for (std::size_t threads : regression_thread_counts()) {
    EXPECT_EQ(sparsify_edges_parallel(g, 5, 1234, threads), reference)
        << threads << " threads";
  }
}

TEST(ParallelPipeline, FusedGraphIdenticalAcrossThreadCounts) {
  Rng grng(18);
  const Graph g = gen::clique_union(600, 40, 3, grng);
  const VertexId delta = 6;
  const std::uint64_t seed = 99;
  // The serial reference path: substream marking + global-sort CSR build.
  const Graph reference =
      Graph::from_edges(g.num_vertices(),
                        sparsify_edges_parallel(g, delta, seed, 1));
  for (std::size_t threads : regression_thread_counts()) {
    ThreadPool pool(threads);
    const Graph fused = sparsify_parallel(g, delta, seed, pool);
    expect_identical(fused, reference,
                     ("fused pipeline, " + std::to_string(threads) +
                      " threads")
                         .c_str());
  }
}

TEST(ParallelPipeline, FusedShardCountDoesNotChangeOutput) {
  const Graph g = gen::complete_graph(300);
  ThreadPool pool(4);
  const Graph one = sparsify_parallel(g, 4, 7, pool, nullptr, 1);
  for (std::size_t shards : {2u, 3u, 5u, 16u}) {
    const Graph many = sparsify_parallel(g, 4, 7, pool, nullptr, shards);
    expect_identical(many, one,
                     ("shards=" + std::to_string(shards)).c_str());
  }
}

TEST(ParallelPipeline, FromEdgesParallelMatchesSerialBuilder) {
  Rng grng(19);
  for (const Graph& g :
       {gen::erdos_renyi(700, 12.0, grng), gen::complete_graph(120),
        Graph::from_edges(5, {{0, 1}}), Graph::from_edges(0, {})}) {
    const EdgeList edges = g.edge_list();
    for (std::size_t threads : {1u, 3u, 8u}) {
      ThreadPool pool(threads);
      expect_identical(
          Graph::from_edges_parallel(g.num_vertices(), edges, pool), g,
          "from_edges_parallel");
    }
  }
}

TEST(ParallelPipeline, ShardBuilderDedupsWithinVertexLists) {
  // The same edge marked from both endpoints, split across shards — the
  // exact duplication pattern the sparsifier produces.
  const std::vector<EdgeList> shards = {
      {{0, 1}, {1, 2}, {0, 1}},  // {0,1} twice within one shard
      {{1, 0}, {2, 3}},          // and again, reversed, in another shard
      {},                        // empty shards are legal
  };
  ThreadPool pool(2);
  const Graph g = Graph::from_edge_shards_parallel(4, shards, pool);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_EQ(g.num_non_isolated(), 4u);
}

TEST(ParallelPipeline, ShardBuilderEmptyInputs) {
  ThreadPool pool(2);
  const Graph none =
      Graph::from_edge_shards_parallel(0, std::vector<EdgeList>{}, pool);
  EXPECT_EQ(none.num_vertices(), 0u);
  EXPECT_EQ(none.num_edges(), 0u);
  const Graph isolated = Graph::from_edge_shards_parallel(
      3, std::vector<EdgeList>{{}, {}}, pool);
  EXPECT_EQ(isolated.num_vertices(), 3u);
  EXPECT_EQ(isolated.num_edges(), 0u);
}

// Edge cases of the transpose that sorts the adjacency lists: every
// build must equal Graph::from_edges on the normalised edge list.
Graph reference_of(VertexId n, const std::vector<EdgeList>& shards) {
  EdgeList all;
  for (const EdgeList& shard : shards) {
    all.insert(all.end(), shard.begin(), shard.end());
  }
  normalize_edge_list(all);
  return Graph::from_edges(n, all);
}

TEST(ParallelPipeline, TransposeDedupsHeavyDuplicationAcrossShards) {
  // Every edge 1-6 times, in either orientation, scattered over 9 shards.
  Rng rng(23);
  const Graph base = gen::erdos_renyi(400, 16.0, rng);
  std::vector<EdgeList> shards(9);
  for (const Edge& e : base.edge_list()) {
    for (std::uint64_t c = 0, copies = 1 + rng.below(6); c < copies; ++c) {
      shards[rng.below(shards.size())].push_back(
          rng.chance(0.5) ? e : Edge(e.v, e.u));
    }
  }
  const Graph reference = reference_of(base.num_vertices(), shards);
  expect_identical(reference, base, "normalised reference");
  for (std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    expect_identical(
        Graph::from_edge_shards_parallel(base.num_vertices(), shards, pool),
        reference,
        ("duplicated shards, " + std::to_string(threads) + " lanes")
            .c_str());
  }
}

TEST(ParallelPipeline, TransposeKeepsIsolatedVertices) {
  // Isolated vertices at the front, in the middle and at the tail, plus a
  // star whose centre holds most arcs, so source blocks split unevenly.
  const VertexId n = 900;
  EdgeList edges;
  for (VertexId v = 301; v < 600; ++v) edges.emplace_back(300, v);
  for (VertexId v = 650; v + 1 < 800; v += 2) edges.emplace_back(v, v + 1);
  const Graph reference = Graph::from_edges(n, edges);
  ThreadPool pool(4);
  for (std::size_t parts : {1u, 3u, 16u}) {
    std::vector<EdgeList> shards(parts);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      shards[i % parts].push_back(edges[i]);
    }
    const Graph built = Graph::from_edge_shards_parallel(n, shards, pool);
    expect_identical(built, reference,
                     ("parts=" + std::to_string(parts)).c_str());
    EXPECT_EQ(built.num_non_isolated(), 300u + 150u);
    EXPECT_EQ(built.degree(0), 0u);
    EXPECT_EQ(built.degree(n - 1), 0u);
  }
  expect_identical(Graph::from_edges_parallel(n, edges, pool), reference,
                   "from_edges_parallel");
}

TEST(ParallelPipeline, TransposeOnePartEqualsManyParts) {
  // One part transposes serially; 2, 5 and 32 parts (more than the four
  // lanes) split it into source blocks. Every split gives the same graph.
  Rng rng(29);
  const Graph g = gen::clique_union(800, 30, 3, rng);
  const EdgeList edges = g.edge_list();
  ThreadPool pool(4);
  for (std::size_t parts : {1u, 2u, 5u, 32u}) {
    std::vector<EdgeList> shards(parts);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const Edge e = edges[i];
      // Twice each, once per orientation, in different parts.
      shards[i % parts].push_back(e);
      shards[(i + 1) % parts].push_back(Edge(e.v, e.u));
    }
    expect_identical(
        Graph::from_edge_shards_parallel(g.num_vertices(), shards, pool),
        reference_of(g.num_vertices(), shards),
        ("parts=" + std::to_string(parts)).c_str());
  }
}

TEST(ParallelPipeline, FromEdgesParallelRejectsDuplicates) {
  // The child re-executes the binary, so it starts its pool threads in a
  // single-threaded process.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(3);
        (void)Graph::from_edges_parallel(4, {{0, 1}, {1, 2}, {0, 1}}, pool);
      },
      "duplicate edge in edge list");
  // A reversed copy in another chunk: >= 3 x 4096 edges split three ways.
  Rng rng(31);
  EdgeList edges = gen::erdos_renyi(3000, 10.0, rng).edge_list();
  ASSERT_GE(edges.size(), 3u * 4096u);
  edges.emplace_back(edges.front().v, edges.front().u);
  EXPECT_DEATH(
      {
        ThreadPool pool(3);
        (void)Graph::from_edges_parallel(3000, edges, pool);
      },
      "duplicate edge in edge list");
}

TEST(ParallelPipeline, ProbeAccountingSurvivesTheJoin) {
  const Graph g = gen::complete_graph(250);
  const VertexId delta = 5;
  // The serial builder's probe count is structural (1 degree read per
  // vertex plus deg or Δ neighbor reads), so both parallel builders must
  // report exactly the same total for any shard count.
  Rng rng(1);
  ProbeMeter serial_meter;
  (void)sparsify_edges(g, delta, rng, &serial_meter);
  for (std::size_t threads : {1u, 2u, 7u}) {
    SparsifierStats stats;
    (void)sparsify_edges_parallel(g, delta, 42, threads, &stats);
    EXPECT_EQ(stats.probes, serial_meter.probes()) << threads << " threads";
    EXPECT_EQ(stats.shard_probes.size(), threads);
    std::uint64_t sum = 0;
    for (std::uint64_t p : stats.shard_probes) sum += p;
    EXPECT_EQ(sum, stats.probes);

    ThreadPool pool(threads);
    SparsifierStats fused_stats;
    const Graph fused =
        sparsify_parallel(g, delta, 42, pool, &fused_stats, threads);
    EXPECT_EQ(fused_stats.probes, serial_meter.probes());
    EXPECT_EQ(fused_stats.edges, fused.num_edges());
    EXPECT_GE(fused_stats.marked, fused_stats.edges);
    // Timing split contract: mark + build == total (up to clock reads),
    // with both phases accounted separately.
    EXPECT_GE(fused_stats.mark_seconds, 0.0);
    EXPECT_GE(fused_stats.build_seconds, 0.0);
    EXPECT_GT(fused_stats.total_seconds, 0.0);
    EXPECT_LE(fused_stats.mark_seconds + fused_stats.build_seconds,
              fused_stats.total_seconds + 1e-6);
  }
}

TEST(ParallelPipeline, NestedParallelForRunsInline) {
  // A parallel_for issued from inside a pool task must not deadlock (the
  // fused pipeline may be reached from parallel Monte-Carlo trials that
  // already run on default_pool()).
  std::atomic<int> inner{0};
  parallel_for(4, [&](std::size_t) {
    parallel_for(8, [&](std::size_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 32);
}

}  // namespace
}  // namespace matchsparse
