// The parallel sparsify→CSR pipeline: lane-count determinism of the
// sharded marking (the order-independence claim of the per-vertex
// mix64(seed, v) substreams), the parallel CSR builders, sparsify()
// against its edge-list reference sparsify_edges(), and the per-shard
// probe accounting.
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
  const EdgeList reference = sparsify_edges(g, 5, 1234);
  for (std::size_t threads : regression_thread_counts()) {
    EXPECT_EQ(sparsify(g, 5, 1234, threads).edge_list(), reference)
        << threads << " threads";
  }
}

TEST(ParallelPipeline, FusedGraphIdenticalAcrossThreadCounts) {
  struct Input {
    std::string name;
    Graph g;
    VertexId delta;
    std::uint64_t seed;
    std::vector<std::size_t> lanes;
  };
  std::vector<Input> inputs;
  Rng grng(18);
  inputs.push_back({"clique_union(600, 40, 3)",
                    gen::clique_union(600, 40, 3, grng), 6, 99,
                    regression_thread_counts()});
  // The three regimes of the marking rule at Δ = 32: K_400 samples at
  // every vertex, clique_union's degree ~78 > 2Δ samples at scale, and
  // the unit-disk graph's degree ~35 < 2Δ keeps whole neighbourhoods, so
  // most edges are marked from both ends.
  Rng rng(5);
  const std::vector<std::size_t> lanes = {1, 2, 4, 8};
  inputs.push_back(
      {"K_400", gen::complete_graph(400), 32, 0xbadc0ffee, lanes});
  inputs.push_back({"clique_union(20000, 40, 2)",
                    gen::clique_union(20000, 40, 2, rng), 32, 0xbadc0ffee,
                    lanes});
  inputs.push_back(
      {"unit_disk(20000, degree 35)",
       gen::unit_disk(20000, gen::unit_disk_radius_for_degree(20000, 35.0),
                      rng),
       32, 0xbadc0ffee, lanes});
  for (const Input& in : inputs) {
    // The reference: the same marks as one canonical list, built serially.
    const Graph reference = Graph::from_edges(
        in.g.num_vertices(), sparsify_edges(in.g, in.delta, in.seed));
    for (const std::size_t threads : in.lanes) {
      expect_identical(sparsify(in.g, in.delta, in.seed, threads), reference,
                       (in.name + ", " + std::to_string(threads) + " lanes")
                           .c_str());
    }
  }
}

TEST(ParallelPipeline, FusedShardCountDoesNotChangeOutput) {
  const Graph g = gen::complete_graph(300);
  const Graph one = sparsify(g, 4, 7, 1);
  for (std::size_t shards : {2u, 3u, 5u, 16u}) {
    const Graph many = sparsify(g, 4, 7, shards);
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
  // The probe count is structural (1 degree read per vertex plus deg or
  // Δ neighbor reads; every degree of K_250 exceeds 2Δ), so every lane
  // count must report exactly the same total.
  const std::uint64_t expected = std::uint64_t{250} * (1 + delta);
  for (std::size_t threads : {1u, 2u, 7u}) {
    SparsifierStats fused_stats;
    const Graph fused = sparsify(g, delta, 42, threads, &fused_stats);
    EXPECT_EQ(fused_stats.probes, expected) << threads << " threads";
    EXPECT_EQ(fused_stats.shard_probes.size(), threads);
    std::uint64_t sum = 0;
    for (std::uint64_t p : fused_stats.shard_probes) sum += p;
    EXPECT_EQ(sum, fused_stats.probes);
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
