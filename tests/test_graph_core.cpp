#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <span>
#include <utility>

#include "gen/generators.hpp"

namespace matchsparse {
namespace {

Graph triangle() {
  return Graph::from_edges(3, {{0, 1}, {1, 2}, {0, 2}});
}

TEST(Edge, NormalizedOrdersEndpoints) {
  EXPECT_EQ(Edge(5, 2).normalized().u, 2u);
  EXPECT_EQ(Edge(5, 2).normalized().v, 5u);
  EXPECT_EQ(Edge(2, 5), Edge(5, 2));
}

TEST(Edge, OtherEndpoint) {
  const Edge e(3, 8);
  EXPECT_EQ(e.other(3), 8u);
  EXPECT_EQ(e.other(8), 3u);
  EXPECT_TRUE(e.touches(3));
  EXPECT_FALSE(e.touches(4));
}

TEST(NormalizeEdgeList, RemovesDuplicatesAndLoops) {
  EdgeList edges{{1, 0}, {0, 1}, {2, 2}, {1, 2}};
  normalize_edge_list(edges);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], Edge(0, 1));
  EXPECT_EQ(edges[1], Edge(1, 2));
}

// Pins the full contract: self-loops go first (they are never sorted or
// deduplicated against real edges), then endpoints are canonicalised to
// u <= v, then the list is sorted and exact duplicates collapse — so the
// output is the canonical sorted loop-free edge set, and {u,v} duplicates
// are detected regardless of orientation.
TEST(NormalizeEdgeList, PinnedSemantics) {
  EdgeList empty;
  normalize_edge_list(empty);
  EXPECT_TRUE(empty.empty());

  EdgeList only_loops{{3, 3}, {0, 0}, {3, 3}};
  normalize_edge_list(only_loops);
  EXPECT_TRUE(only_loops.empty());

  EdgeList mixed{{5, 4}, {2, 2}, {4, 5}, {1, 7}, {7, 1}, {1, 1}, {0, 9}};
  normalize_edge_list(mixed);
  const EdgeList expected{{0, 9}, {1, 7}, {4, 5}};
  EXPECT_EQ(mixed, expected);
  // Output is canonical: every edge has u <= v and the list is sorted.
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    EXPECT_LE(mixed[i].u, mixed[i].v);
    if (i > 0) {
      EXPECT_TRUE(mixed[i - 1] < mixed[i]);
    }
  }
  // Idempotent on already-normal lists.
  EdgeList again = mixed;
  normalize_edge_list(again);
  EXPECT_EQ(again, mixed);

  // A canonical list takes the no-sort path and comes back unchanged, bit
  // for bit (operator== would also accept swapped endpoints).
  const EdgeList canonical{{0, 2}, {1, 2}, {3, 4}};
  EdgeList same = canonical;
  normalize_edge_list(same);
  ASSERT_EQ(same.size(), canonical.size());
  for (std::size_t i = 0; i < same.size(); ++i) {
    EXPECT_EQ(same[i].u, canonical[i].u);
    EXPECT_EQ(same[i].v, canonical[i].v);
  }
  // A sorted list with one adjacent duplicate still collapses it, and a
  // sorted list with one self-loop still drops it.
  EdgeList sorted_dup{{0, 2}, {1, 2}, {1, 2}, {3, 4}};
  normalize_edge_list(sorted_dup);
  EXPECT_EQ(sorted_dup, canonical);
  EdgeList sorted_loop{{0, 2}, {1, 1}, {1, 2}, {3, 4}};
  normalize_edge_list(sorted_loop);
  EXPECT_EQ(sorted_loop, canonical);
}

TEST(Graph, EmptyGraph) {
  const Graph g = Graph::from_edges(0, {});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(Graph, VerticesWithoutEdges) {
  const Graph g = Graph::from_edges(5, {{0, 1}});
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(4), 0u);
  EXPECT_EQ(g.num_non_isolated(), 2u);
}

TEST(Graph, DegreesAndNeighbors) {
  const Graph g = triangle();
  for (VertexId v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2u);
  const auto nbrs = g.neighbors(1);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0], 0u);  // sorted
  EXPECT_EQ(nbrs[1], 2u);
  EXPECT_EQ(g.neighbor(1, 0), 0u);
  EXPECT_EQ(g.neighbor(1, 1), 2u);
}

TEST(Graph, HasEdge) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}});
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(0, 3));
}

TEST(Graph, EdgeListRoundTrip) {
  EdgeList edges{{0, 3}, {1, 2}, {0, 1}};
  normalize_edge_list(edges);
  const Graph g = Graph::from_edges(4, edges);
  EXPECT_EQ(g.edge_list(), edges);
}

// from_edges sorts only the adjacency lists that arrive out of order, so
// the same edge set must give the same CSR whichever path each list
// takes: the canonical sorted list (no list sorted), the list reversed and
// the list shuffled (lists sorted), and every endpoint pair swapped.
void expect_same_graph_from_every_order(const Graph& g, std::uint64_t seed) {
  const EdgeList sorted = g.edge_list();
  const EdgeList reversed(sorted.rbegin(), sorted.rend());
  EdgeList shuffled = sorted;
  Rng rng(seed);
  rng.shuffle(std::span<Edge>(shuffled));
  EdgeList swapped = sorted;
  for (Edge& e : swapped) std::swap(e.u, e.v);

  const VertexId n = g.num_vertices();
  const EdgeList* const forms[] = {&sorted, &reversed, &shuffled, &swapped};
  for (std::size_t f = 0; f < std::size(forms); ++f) {
    const Graph h = Graph::from_edges(n, *forms[f]);
    ASSERT_EQ(h.num_vertices(), n);
    EXPECT_EQ(h.num_edges(), g.num_edges());
    EXPECT_EQ(h.max_degree(), g.max_degree());
    EXPECT_EQ(h.num_non_isolated(), g.num_non_isolated());
    for (VertexId v = 0; v < n; ++v) {
      const auto want = g.neighbors(v);
      const auto got = h.neighbors(v);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "vertex " << v << " of form " << f;
      EXPECT_TRUE(std::adjacent_find(got.begin(), got.end(),
                                     [](VertexId a, VertexId b) {
                                       return a >= b;
                                     }) == got.end());
    }
  }
}

TEST(Graph, FromEdgesIsInvariantToInputOrder) {
  expect_same_graph_from_every_order(gen::complete_graph(60), 1);
  Rng rng(7);
  expect_same_graph_from_every_order(gen::erdos_renyi(500, 8.0, rng), 2);
}

TEST(Graph, MaxAndAverageDegree) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 1.5);
}

TEST(Graph, ProbeMeterCountsAccesses) {
  const Graph g = triangle();
  ProbeMeter meter;
  (void)g.degree(0, &meter);
  (void)g.neighbor(0, 0, &meter);
  (void)g.neighbor(0, 1, &meter);
  EXPECT_EQ(meter.probes(), 3u);
  meter.reset();
  EXPECT_EQ(meter.probes(), 0u);
}

TEST(Graph, NullMeterIsFree) {
  const Graph g = triangle();
  EXPECT_EQ(g.neighbor(0, 0, nullptr), g.neighbor(0, 0));
}

TEST(InducedSubgraph, TriangleMinusVertex) {
  const Graph g = triangle();
  const std::vector<VertexId> keep{0, 2};
  const Graph sub = induced_subgraph(g, keep);
  EXPECT_EQ(sub.num_vertices(), 2u);
  EXPECT_EQ(sub.num_edges(), 1u);
  EXPECT_TRUE(sub.has_edge(0, 1));  // local ids
}

TEST(InducedSubgraph, PreservesInternalEdgesOnly) {
  // Path 0-1-2-3; induce {0, 1, 3}: only edge 0-1 survives.
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  const std::vector<VertexId> keep{0, 1, 3};
  const Graph sub = induced_subgraph(g, keep);
  EXPECT_EQ(sub.num_edges(), 1u);
  EXPECT_TRUE(sub.has_edge(0, 1));
  EXPECT_FALSE(sub.has_edge(1, 2));
}

TEST(InducedSubgraph, EmptySelection) {
  const Graph g = triangle();
  const Graph sub = induced_subgraph(g, std::vector<VertexId>{});
  EXPECT_EQ(sub.num_vertices(), 0u);
}

}  // namespace
}  // namespace matchsparse
