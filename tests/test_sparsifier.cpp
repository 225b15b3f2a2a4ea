#include "sparsify/sparsifier.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "gen/generators.hpp"
#include "graph/measures.hpp"
#include "matching/blossom.hpp"

namespace matchsparse {
namespace {

TEST(SparsifierParams, TheoreticalFormula) {
  // Δ = ceil(20 * (β/ε) * ln(24/ε)).
  const auto p = SparsifierParams::theoretical(2, 0.5);
  const double expected = 20.0 * (2.0 / 0.5) * std::log(24.0 / 0.5);
  EXPECT_EQ(p.delta, static_cast<VertexId>(std::ceil(expected)));
}

TEST(SparsifierParams, PracticalScalesLinearly) {
  const auto p1 = SparsifierParams::practical(2, 0.5, 1.0);
  const auto p2 = SparsifierParams::practical(2, 0.5, 2.0);
  EXPECT_NEAR(static_cast<double>(p2.delta),
              2.0 * static_cast<double>(p1.delta), 1.0);
}

TEST(SparsifierParams, DeltaSaturatesAndIsNeverZero) {
  // Formulas past the VertexId range clamp at kMaxDelta, whose 2Δ still
  // fits a VertexId and exceeds every degree (G_Δ = G).
  constexpr VertexId kMax = SparsifierParams::kMaxDelta;
  EXPECT_EQ(SparsifierParams::practical(1, 1e-300).delta, kMax);
  EXPECT_EQ(SparsifierParams::practical(5, 1e-9).delta, kMax);  // ~2.4e11
  EXPECT_EQ(SparsifierParams::theoretical(1, 1e-300).delta, kMax);
  EXPECT_EQ(SparsifierParams::practical(kNoVertex, 0.5).delta, kMax);
  // A vanishing or non-positive scale still marks one edge per vertex.
  EXPECT_EQ(SparsifierParams::practical(1, 0.9, 1e-12).delta, 1u);
  EXPECT_EQ(SparsifierParams::practical(1, 0.5, 0.0).delta, 1u);
  EXPECT_EQ(SparsifierParams::practical(1, 0.5, -3.0).delta, 1u);
}

TEST(SparsifierParams, RejectsBadEps) {
  EXPECT_DEATH(SparsifierParams::theoretical(2, 0.0), "eps");
  EXPECT_DEATH(SparsifierParams::theoretical(2, 1.5), "eps");
}

TEST(Sparsifier, SubgraphOfInput) {
  Rng rng(1);
  const Graph g = gen::erdos_renyi(100, 20.0, rng);
  const EdgeList edges = sparsify_edges(g, 4, rng);
  for (const Edge& e : edges) EXPECT_TRUE(g.has_edge(e.u, e.v));
}

TEST(Sparsifier, LowDegreeVerticesKeepWholeNeighborhood) {
  // Vertices with deg <= 2Δ contribute every incident edge (paper tweak),
  // so on a graph with max degree <= 2Δ the sparsifier is the whole graph.
  Rng rng(2);
  const Graph g = gen::erdos_renyi(80, 5.0, rng);
  const VertexId delta = (g.max_degree() + 1) / 2;
  const EdgeList edges = sparsify_edges(g, delta, rng);
  EXPECT_EQ(edges.size(), g.num_edges());
}

TEST(Sparsifier, SizeBoundNDelta) {
  // |E_Δ| <= 2Δ·n (each vertex marks at most 2Δ edges with the tweak).
  Rng rng(3);
  const Graph g = gen::complete_graph(200);
  const VertexId delta = 5;
  const EdgeList edges = sparsify_edges(g, delta, rng);
  EXPECT_LE(edges.size(),
            static_cast<std::size_t>(2 * delta) * g.num_vertices());
}

TEST(Sparsifier, MarksAreDistinctPerVertex) {
  // Sampling is without replacement: a vertex of degree >= Δ has exactly Δ
  // distinct sampled neighbors. Check via a 1-vertex star-like instance:
  // vertex 0 adjacent to everyone, others adjacent only to 0 and a chain.
  Rng rng(4);
  const Graph g = gen::complete_graph(64);
  // With delta=10 every vertex samples exactly 10 distinct incident edges;
  // total distinct edges is at most 64*10 and at least 64*10/2 (each edge
  // can be marked from both sides).
  const EdgeList edges = sparsify_edges(g, 10, rng);
  EXPECT_GE(edges.size(), 64u * 10 / 2);
  EXPECT_LE(edges.size(), 64u * 10);
  std::set<std::uint64_t> keys;
  for (const Edge& e : edges) keys.insert(edge_key(e));
  EXPECT_EQ(keys.size(), edges.size());  // canonical, deduplicated
}

TEST(Sparsifier, DeterministicUnderSeed) {
  Rng g_rng(5);
  const Graph g = gen::erdos_renyi(150, 30.0, g_rng);
  Rng a(99), b(99);
  EXPECT_EQ(sparsify_edges(g, 6, a), sparsify_edges(g, 6, b));
}

TEST(Sparsifier, ObservationSizeBound) {
  // Observation 2.10: |E_Δ| <= 2|MCM|(Δ+β); with the 2Δ tweak the marks
  // double, so test against 2|MCM|(2Δ+β).
  Rng rng(6);
  const VertexId beta = 1;
  const Graph g = gen::complete_graph(120);
  const VertexId delta = 8;
  const EdgeList edges = sparsify_edges(g, delta, rng);
  const VertexId mcm = blossom_mcm(g).size();
  EXPECT_LE(edges.size(), static_cast<std::size_t>(2 * mcm) *
                              (2 * delta + beta));
}

TEST(Sparsifier, ArboricityBound) {
  // Observation 2.12 (with the tweak's factor 2): alpha(G_Δ) <= 4Δ. The
  // density lower estimate must respect it, and the degeneracy upper
  // estimate can overshoot by at most 2x.
  Rng rng(7);
  const Graph g = gen::complete_graph(300);
  const VertexId delta = 4;
  Rng s_rng(8);
  const Graph gd = sparsify(g, delta, s_rng);
  const auto est = estimate_arboricity(gd);
  EXPECT_LE(est.lower, 4.0 * delta);
}

TEST(Sparsifier, ProbeComplexityLinearInDelta) {
  // Building G_Δ must probe O(n·Δ) adjacency entries — far below 2m on a
  // dense graph. (This is Theorem 3.1's sublinearity.)
  Rng rng(9);
  const VertexId n = 400;
  const Graph g = gen::complete_graph(n);
  const VertexId delta = 6;
  ProbeMeter meter;
  (void)sparsify_edges(g, delta, rng, &meter);
  // Each vertex: 1 degree probe + at most 2Δ neighbor probes.
  EXPECT_LE(meter.probes(), static_cast<std::uint64_t>(n) * (2 * delta + 1));
  EXPECT_LT(meter.probes(), 2 * g.num_edges());
}

TEST(Sparsifier, StatsPopulated) {
  Rng rng(10);
  const Graph g = gen::complete_graph(100);
  SparsifierStats stats;
  Rng s_rng(11);
  const Graph gd = sparsify(g, 5, s_rng, &stats);
  EXPECT_EQ(stats.edges, gd.num_edges());
  EXPECT_GT(stats.probes, 0u);
  EXPECT_GE(stats.mark_seconds, 0.0);
  EXPECT_GE(stats.build_seconds, 0.0);
  // total covers both phases end-to-end.
  EXPECT_GE(stats.total_seconds,
            std::max(stats.mark_seconds, stats.build_seconds));
}

TEST(Sparsifier, EmptyAndIsolated) {
  Rng rng(12);
  const Graph g = Graph::from_edges(10, {{0, 1}});
  const EdgeList edges = sparsify_edges(g, 3, rng);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0], Edge(0, 1));
}

TEST(DeterministicRules, ProduceSubgraphsWithBudget) {
  Rng rng(13);
  const Graph g = gen::complete_graph(60);
  for (auto rule : {DeterministicRule::kFirstDelta,
                    DeterministicRule::kLastDelta,
                    DeterministicRule::kStride}) {
    const EdgeList edges = sparsify_edges_deterministic(g, 4, rule);
    EXPECT_LE(edges.size(), 60u * 4);
    for (const Edge& e : edges) EXPECT_TRUE(g.has_edge(e.u, e.v));
  }
}

TEST(DeterministicRules, FirstDeltaIsPrefix) {
  const Graph g = gen::star(10);
  const EdgeList edges =
      sparsify_edges_deterministic(g, 2, DeterministicRule::kFirstDelta);
  // Center marks neighbors 1,2; each leaf marks its only neighbor 0.
  EXPECT_EQ(edges.size(), 9u);  // every star edge marked by its leaf
}

}  // namespace
}  // namespace matchsparse
