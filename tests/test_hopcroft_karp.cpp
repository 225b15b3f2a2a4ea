#include "matching/hopcroft_karp.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "gen/generators.hpp"
#include "guard/guard.hpp"
#include "matching/blossom.hpp"
#include "util/rng.hpp"

namespace matchsparse {
namespace {

Graph random_bipartite(VertexId left, VertexId right, double p, Rng& rng) {
  EdgeList edges;
  for (VertexId u = 0; u < left; ++u) {
    for (VertexId v = 0; v < right; ++v) {
      if (rng.chance(p)) edges.emplace_back(u, left + v);
    }
  }
  return Graph::from_edges(left + right, edges);
}

TEST(TwoColor, DetectsBipartite) {
  const Graph even_cycle =
      Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_TRUE(two_color(even_cycle).bipartite);
  const Graph odd_cycle = Graph::from_edges(3, {{0, 1}, {1, 2}, {2, 0}});
  EXPECT_FALSE(two_color(odd_cycle).bipartite);
}

TEST(TwoColor, SidesAreProper) {
  Rng rng(1);
  const Graph g = random_bipartite(20, 25, 0.2, rng);
  const auto bp = two_color(g);
  ASSERT_TRUE(bp.bipartite);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(u)) EXPECT_NE(bp.side[u], bp.side[v]);
  }
}

TEST(TwoColor, DisconnectedComponents) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {2, 3}, {4, 5}});
  EXPECT_TRUE(two_color(g).bipartite);
}

TEST(HopcroftKarp, ExactMatchesBlossom) {
  Rng rng(2);
  for (int trial = 0; trial < 30; ++trial) {
    const Graph g = random_bipartite(15, 18, 0.15, rng);
    const Matching hk = hopcroft_karp(g);
    EXPECT_TRUE(hk.is_valid(g));
    EXPECT_EQ(hk.size(), blossom_mcm(g).size()) << "trial " << trial;
  }
}

TEST(HopcroftKarp, PerfectOnCompleteBipartite) {
  EdgeList edges;
  for (VertexId u = 0; u < 8; ++u) {
    for (VertexId v = 8; v < 16; ++v) edges.emplace_back(u, v);
  }
  const Graph g = Graph::from_edges(16, edges);
  EXPECT_EQ(hopcroft_karp(g).size(), 8u);
}

TEST(HopcroftKarp, PhaseTruncationGuarantee) {
  // After k phases HK is a (1+1/k)-approximation.
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = random_bipartite(40, 40, 0.08, rng);
    const VertexId opt = hopcroft_karp(g).size();
    for (int k : {1, 2, 4}) {
      const VertexId approx = hopcroft_karp(g, k).size();
      EXPECT_LE(approx, opt);
      EXPECT_GE(static_cast<double>(approx) * (1.0 + 1.0 / k),
                static_cast<double>(opt))
          << "k=" << k;
    }
  }
}

// Output-identity pins for the epoch-stamped BFS level array: the golden
// mate vectors below were recorded from the pre-stamping implementation
// (std::fill(dist_, kInf) each phase), so any behavioral drift in the
// between-phase reset — not just a size change — trips these.
TEST(HopcroftKarp, GoldenMatesExactRun) {
  Rng rng(11);
  const Graph g = random_bipartite(9, 8, 0.3, rng);
  ASSERT_EQ(g.num_vertices(), 17u);
  ASSERT_EQ(g.num_edges(), 25u);
  const Matching m = hopcroft_karp(g);
  const int golden[17] = {9, 14, 11, 12, 13, -1, 10, 15, -1,
                          0, 6,  2,  3,  4,  1,  7,  -1};
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const int mate = m.mate(v) == kNoVertex ? -1 : static_cast<int>(m.mate(v));
    EXPECT_EQ(mate, golden[v]) << "vertex " << v;
  }
}

TEST(HopcroftKarp, GoldenMatesTruncatedRun) {
  Rng rng(12);
  const Graph g = random_bipartite(12, 12, 0.2, rng);
  ASSERT_EQ(g.num_vertices(), 24u);
  ASSERT_EQ(g.num_edges(), 30u);
  const Matching m = hopcroft_karp(g, /*max_phases=*/2);
  const int golden[24] = {23, 18, 12, 20, 16, 14, 19, -1, 21, 15, 13, 17,
                          2,  10, 5,  9,  4,  11, 1,  6,  3,  8,  -1, 0};
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const int mate = m.mate(v) == kNoVertex ? -1 : static_cast<int>(m.mate(v));
    EXPECT_EQ(mate, golden[v]) << "vertex " << v;
  }
}

TEST(HopcroftKarp, ReplayIdentityAcrossManyPhases) {
  // Many-phase instances reuse the stamped level array heavily; replay
  // must be bit-identical (the stamp reset is semantically a full fill).
  Rng rng(13);
  const Graph b = random_bipartite(60, 60, 0.05, rng);
  const Matching a = hopcroft_karp(b);
  const Matching c = hopcroft_karp(b);
  for (VertexId v = 0; v < b.num_vertices(); ++v) {
    EXPECT_EQ(a.mate(v), c.mate(v)) << "vertex " << v;
  }
}

TEST(HopcroftKarp, ChargesItsArraysToTheActiveGuard) {
  Rng rng(8);
  const Graph g = random_bipartite(150, 150, 0.03, rng);
  // side_ (1 B), mate_ and dist_ (4 B each) and dist_epoch_ (8 B) per
  // vertex, charged before two_color allocates the first of them.
  const std::uint64_t arrays = 17ull * g.num_vertices();
  guard::RunGuard::Limits tight;
  tight.mem_budget_bytes = 1;
  guard::RunGuard starved(tight);
  try {
    const guard::ScopedGuard installed(starved);
    (void)hopcroft_karp(g, 4);
    ADD_FAILURE() << "a 1-byte budget did not trip";
  } catch (const guard::BudgetExceeded& e) {
    const std::string expected =
        "charging matching.hk arrays: " + std::to_string(arrays) + " B";
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(starved.stop_reason(), guard::StopReason::kBudget);

  guard::RunGuard roomy;
  Matching charged;
  {
    const guard::ScopedGuard installed(roomy);
    charged = hopcroft_karp(g, 4);
  }
  EXPECT_EQ(roomy.memory().peak(), arrays);
  EXPECT_EQ(roomy.memory().used(), 0u);
  const Matching plain = hopcroft_karp(g, 4);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(charged.mate(v), plain.mate(v)) << "vertex " << v;
  }
}

TEST(HopcroftKarp, RejectsOddCycle) {
  const Graph odd = Graph::from_edges(3, {{0, 1}, {1, 2}, {2, 0}});
  EXPECT_DEATH(hopcroft_karp(odd), "bipartite");
}

TEST(HkPhases, ForEps) {
  EXPECT_EQ(hk_phases_for_eps(0.5), 2);
  EXPECT_EQ(hk_phases_for_eps(0.1), 10);
  EXPECT_EQ(hk_phases_for_eps(0.34), 3);
}

TEST(HkPhases, SaturatesForTinyEps) {
  EXPECT_EQ(hk_phases_for_eps(1e-300), std::numeric_limits<int>::max());
}

TEST(HopcroftKarp, EmptyGraph) {
  EXPECT_EQ(hopcroft_karp(Graph::from_edges(4, {})).size(), 0u);
}

}  // namespace
}  // namespace matchsparse
