#include "matching/bounded_aug.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/generators.hpp"
#include "guard/guard.hpp"
#include "matching/blossom.hpp"
#include "matching/greedy.hpp"
#include "matching/verify.hpp"
#include "obs/metrics.hpp"
#include "sparsify/sparsifier.hpp"
#include "util/rng.hpp"

namespace matchsparse {
namespace {

TEST(PathCap, FormulaMatchesTheory) {
  EXPECT_EQ(path_cap_for_eps(1.0), 1u);
  EXPECT_EQ(path_cap_for_eps(0.5), 3u);
  EXPECT_EQ(path_cap_for_eps(0.25), 7u);
  EXPECT_EQ(path_cap_for_eps(0.1), 19u);
}

TEST(PathCap, SaturatesSoTheDoubledCapFits) {
  // approx_mcm searches to 2 * cap in VertexId arithmetic.
  EXPECT_EQ(path_cap_for_eps(1e-300), kNoVertex / 2);
  EXPECT_EQ(path_cap_for_eps(1e-12), kNoVertex / 2);
}

TEST(ApproxMcm, ValidOnRandomGraphs) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = gen::erdos_renyi(80, 5.0, rng);
    const Matching m = approx_mcm(g, 0.2);
    EXPECT_TRUE(m.is_valid(g));
  }
}

TEST(ApproxMcm, WithinGuaranteeOfExact) {
  Rng rng(2);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<VertexId>(20 + rng.below(60));
    const Graph g = gen::erdos_renyi(n, 4.0, rng);
    const double eps = 0.2;
    const VertexId approx = approx_mcm(g, eps).size();
    const VertexId opt = blossom_mcm(g).size();
    EXPECT_LE(approx, opt);
    EXPECT_GE(static_cast<double>(approx) * (1.0 + eps),
              static_cast<double>(opt))
        << "trial " << trial << " n=" << n;
  }
}

TEST(ApproxMcm, SmallEpsIsEffectivelyExactOnModerateGraphs) {
  Rng rng(3);
  for (int trial = 0; trial < 15; ++trial) {
    const Graph g = gen::erdos_renyi(50, 3.0, rng);
    EXPECT_EQ(approx_mcm(g, 0.01).size(), blossom_mcm(g).size())
        << "trial " << trial;
  }
}

TEST(ApproxMcm, HandlesOddCyclesViaBlossoms) {
  // A 9-cycle from greedy's worst start still reaches size 4 with small eps.
  EdgeList edges;
  for (VertexId v = 0; v < 9; ++v) edges.emplace_back(v, (v + 1) % 9);
  const Graph g = Graph::from_edges(9, edges);
  EXPECT_EQ(approx_mcm(g, 0.05).size(), 4u);
}

TEST(ApproxMcm, FlowerGadget) {
  const Graph g =
      Graph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {2, 4}});
  EXPECT_EQ(approx_mcm(g, 0.05).size(), 2u);
}

TEST(ApproxMcm, CliquePathNeedsLongAugmentingPaths) {
  // clique_path is engineered to leave greedy stuck with augmenting paths
  // crossing bridges; small eps must recover the perfect matching.
  const Graph g = gen::clique_path(5, 4);
  const Matching m = approx_mcm(g, 0.05);
  EXPECT_EQ(m.size(), g.num_vertices() / 2);
}

TEST(ApproxMcm, MonotoneInEps) {
  Rng rng(5);
  const Graph g = gen::erdos_renyi(120, 6.0, rng);
  const VertexId coarse = approx_mcm(g, 0.5).size();
  const VertexId fine = approx_mcm(g, 0.05).size();
  EXPECT_LE(coarse, fine + 1);  // allow randomless tie wobble of 1
  EXPECT_GE(fine, coarse);
}

TEST(ApproxMcm, StartsFromProvidedMatching) {
  Rng rng(6);
  const Graph g = gen::erdos_renyi(60, 5.0, rng);
  Matching init = greedy_maximal_matching(g);
  const VertexId init_size = init.size();
  const Matching m = approx_mcm(g, 0.1, std::move(init));
  EXPECT_GE(m.size(), init_size);
  EXPECT_TRUE(m.is_valid(g));
}

TEST(ApproxMcm, StatsAreCoherent) {
  Rng rng(7);
  const Graph g = gen::erdos_renyi(100, 5.0, rng);
  ApproxMcmStats stats;
  (void)approx_mcm(g, 0.2, &stats);
  EXPECT_GE(stats.sweeps, 1u);
  EXPECT_GE(stats.searches, stats.augmentations);
}

TEST(ApproxMcm, EmptyGraph) {
  EXPECT_EQ(approx_mcm(Graph::from_edges(3, {}), 0.3).size(), 0u);
}

// Output-identity pins: the goldens below were recorded from the
// implementation that rebased blossoms by rescanning every vertex the
// search had discovered, so any drift in exploration order — the queue,
// the depths, which augmenting path is taken — trips these, not just a
// size change.
int mate_or_minus_one(const Matching& m, VertexId v) {
  return m.mate(v) == kNoVertex ? -1 : static_cast<int>(m.mate(v));
}

TEST(ApproxMcm, ChargesItsArraysToTheActiveGuard) {
  Rng rng(7);
  const Graph g = gen::erdos_renyi(300, 5.0, rng);
  // Nine 4-byte arrays per vertex, charged before they are allocated.
  const std::uint64_t arrays = 36ull * g.num_vertices();
  guard::RunGuard::Limits tight;
  tight.mem_budget_bytes = 1;
  guard::RunGuard starved(tight);
  try {
    const guard::ScopedGuard installed(starved);
    (void)approx_mcm(g, 0.25);
    ADD_FAILURE() << "a 1-byte budget did not trip";
  } catch (const guard::BudgetExceeded& e) {
    const std::string expected =
        "charging matching.aug arrays: " + std::to_string(arrays) + " B";
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(starved.stop_reason(), guard::StopReason::kBudget);

  // Unlimited, the charge is the whole peak, released on return, and the
  // matching is the unguarded one.
  guard::RunGuard roomy;
  Matching charged;
  {
    const guard::ScopedGuard installed(roomy);
    charged = approx_mcm(g, 0.25);
  }
  EXPECT_EQ(roomy.memory().peak(), arrays);
  EXPECT_EQ(roomy.memory().used(), 0u);
  const Matching plain = approx_mcm(g, 0.25);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(charged.mate(v), plain.mate(v)) << "vertex " << v;
  }
}

TEST(ApproxMcm, GoldenMatesBlossomHeavyLineGraph) {
  // L(ER) with an odd base edge count: one vertex stays free. Its search
  // fails after contracting many triangles and runs once, in sweep 1:
  // sweep 2 ends past sweep 1's last augmenting root, before reaching it.
  Rng rng(43);
  const Graph base = gen::erdos_renyi(12, 3.0, rng);
  ASSERT_EQ(base.num_edges() % 2, 1u);
  const Graph g = gen::line_graph(base);
  ASSERT_EQ(g.num_vertices(), 21u);
  ASSERT_EQ(g.num_edges(), 63u);
  obs::Registry registry;
  const obs::ScopedMetricsRegistry scope(registry);
  ApproxMcmStats stats;
  const Matching m = approx_mcm(g, 0.2, &stats);
  const int golden[21] = {1,  0,  3,  2,  18, 19, 7,  6,  9,  8, 13,
                          12, 11, 10, 15, 14, 17, 16, 4,  5,  -1};
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(mate_or_minus_one(m, v), golden[v]) << "vertex " << v;
  }
  EXPECT_EQ(stats.sweeps, 2u);
  EXPECT_EQ(stats.searches, 2u);
  EXPECT_EQ(stats.augmentations, 1u);
  // Every search bumps the search version and every contraction the
  // blossom version, so the difference counts contractions.
  const std::uint64_t resets =
      registry.snapshot().counter_value("matching.aug.stamp_resets");
  EXPECT_EQ(resets - stats.searches, 13u);
}

std::uint64_t mate_hash(const Graph& g, double eps) {
  const Matching m = approx_mcm(g, eps);
  std::uint64_t h = g.num_vertices();
  for (VertexId v = 0; v < g.num_vertices(); ++v) h = mix64(h, m.mate(v));
  return h;
}

TEST(ApproxMcm, LastSweepEndsPastThePreviousSweepsLastAugmentingRoot) {
  // A path 2-0-1-3 and a triangle 4-5-6. Greedy matches 0-1 and 4-5 and
  // leaves 2, 3 and 6 free. Sweep 1 augments from root 2, then the search
  // from 6 fails. Sweep 2 meets the matching root 2 left unchanged, so it
  // ends at root 3 instead of searching 6 again.
  const Graph g = Graph::from_edges(
      7, {{0, 1}, {0, 2}, {1, 3}, {4, 5}, {4, 6}, {5, 6}});
  const int golden[7] = {2, 3, 0, 1, 5, 4, -1};
  for (const double eps : {1.0, 0.5, 0.25}) {
    ApproxMcmStats stats;
    const Matching m = approx_mcm(g, eps, &stats);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(mate_or_minus_one(m, v), golden[v])
          << "eps " << eps << " vertex " << v;
    }
    EXPECT_EQ(stats.searches, 2u) << "eps " << eps;
    EXPECT_EQ(stats.augmentations, 1u) << "eps " << eps;
    EXPECT_EQ(stats.sweeps, 2u) << "eps " << eps;
  }
}

TEST(ApproxMcm, RootThatFailedInOneSweepAugmentsInTheNext) {
  // Here a root whose search failed in one sweep augments in the next,
  // after a later root's augmentation changed the matching. A last sweep
  // that skipped every root that failed in any earlier sweep would stop
  // at |M| = 62.
  Rng rng(1984);
  const Graph g = gen::line_graph(gen::erdos_renyi(80, 3.0, rng));
  ASSERT_EQ(g.num_vertices(), 126u);
  ASSERT_EQ(g.num_edges(), 376u);
  ApproxMcmStats stats;
  const Matching m = approx_mcm(g, 1.0, &stats);
  EXPECT_EQ(m.size(), 63u);
  EXPECT_EQ(stats.searches, 9u);
  EXPECT_EQ(stats.augmentations, 6u);
  EXPECT_EQ(stats.sweeps, 3u);
  EXPECT_EQ(mate_hash(g, 1.0), 0x6af12f02a80a26c8u);
}

TEST(ApproxMcm, GoldenMateHashCorpus) {
  // eps 0.5 and 1.0 keep the depth cap tight enough that contractions
  // meet even vertices the cap left unqueued; 0.2 and 0.1 let searches
  // run deep through nested blossoms.
  const double eps_pool[] = {1.0, 0.5, 0.2, 0.1};
  Rng rng(2024);
  std::uint64_t line = 0;
  for (VertexId trial = 0; trial < 6; ++trial) {
    const Graph g =
        gen::line_graph(gen::erdos_renyi(40 + 30 * trial, 4.0, rng));
    for (const double eps : eps_pool) line = mix64(line, mate_hash(g, eps));
  }
  std::uint64_t disk = 0;
  for (VertexId trial = 0; trial < 4; ++trial) {
    const VertexId n = 150 + 100 * trial;
    const Graph g =
        gen::unit_disk(n, gen::unit_disk_radius_for_degree(n, 8.0), rng);
    for (const double eps : eps_pool) disk = mix64(disk, mate_hash(g, eps));
  }
  std::uint64_t cpath = 0;
  for (const VertexId count : {5u, 9u}) {
    const Graph g = gen::clique_path(count, 6);
    for (const double eps : eps_pool) cpath = mix64(cpath, mate_hash(g, eps));
  }
  std::uint64_t clique = 0;
  for (const VertexId n : {9u, 33u, 80u}) {
    const Graph g = gen::complete_graph(n);
    for (const double eps : eps_pool) clique = mix64(clique, mate_hash(g, eps));
  }
  // G_Δ of K_n: a sparse random graph with many odd cycles, the input the
  // solver sees in the sublinear regime.
  std::uint64_t sparsified = 0;
  const Graph kn = gen::complete_graph(301);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Graph g =
        Graph::from_edges(kn.num_vertices(), sparsify_edges(kn, 6, seed));
    for (const double eps : eps_pool) {
      sparsified = mix64(sparsified, mate_hash(g, eps));
    }
  }
  EXPECT_EQ(line, 0x84b596319d5e3a4au);
  EXPECT_EQ(disk, 0x3346bd76406cd8f3u);
  EXPECT_EQ(cpath, 0x50eb1ba3a1cba9acu);
  EXPECT_EQ(clique, 0x4817836334a1453au);
  EXPECT_EQ(sparsified, 0x634b87f8bf0f4817u);
}

// ---------------------------------------------------------------------------
// Exhaustive verification of the augmenting-path lemma on ALL small graphs.
//
// For every graph on n vertices (edge subsets of K_n as bitmasks) and every
// eps in the pool: the matching is valid, meets the integer form of the
// k/(k+1) bound against exact blossom, and — since the matcher reports no
// augmenting path within its cap — the independent exhaustive search in
// verify.cpp certifies a factor at least as good as the lemma promises.
// ---------------------------------------------------------------------------

EdgeList all_pairs(VertexId n) {
  EdgeList pairs;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) pairs.emplace_back(u, v);
  }
  return pairs;
}

void check_lemma_on(const Graph& g, double eps) {
  const Matching m = approx_mcm(g, eps);
  ASSERT_TRUE(m.is_valid(g));
  const VertexId opt = blossom_mcm(g).size();
  ASSERT_LE(m.size(), opt);
  // Integer form of |M| >= k/(k+1)·opt for k = ceil(1/eps); exact, no
  // floating-point slop.
  const VertexId k = (path_cap_for_eps(eps) + 1) / 2;
  ASSERT_GE(static_cast<std::uint64_t>(m.size()) * (k + 1),
            static_cast<std::uint64_t>(opt) * k)
      << "n=" << g.num_vertices() << " m=" << g.num_edges()
      << " eps=" << eps;
  // Cross-check with the independent verifier: the certified factor must
  // itself respect opt (the lemma's conclusion, derived without blossom).
  const double factor = certified_approximation_factor(g, m, k);
  ASSERT_GE(factor * static_cast<double>(m.size()) + 1e-9,
            static_cast<double>(opt));
}

TEST(ApproxMcmExhaustive, AllGraphsUpTo5Vertices) {
  for (VertexId n = 2; n <= 5; ++n) {
    const EdgeList pairs = all_pairs(n);
    const auto masks = std::uint64_t{1} << pairs.size();
    for (std::uint64_t mask = 0; mask < masks; ++mask) {
      EdgeList edges;
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        if ((mask >> i) & 1) edges.push_back(pairs[i]);
      }
      const Graph g = Graph::from_edges(n, edges);
      for (const double eps : {1.0, 0.5, 0.25}) {
        check_lemma_on(g, eps);
        if (HasFatalFailure()) return;  // one repro is enough
      }
    }
  }
}

TEST(ApproxMcmExhaustive, AllGraphsOn6Vertices) {
  // 2^15 graphs; one eps keeps this a fraction of a second.
  const EdgeList pairs = all_pairs(6);
  const auto masks = std::uint64_t{1} << pairs.size();
  for (std::uint64_t mask = 0; mask < masks; ++mask) {
    EdgeList edges;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if ((mask >> i) & 1) edges.push_back(pairs[i]);
    }
    check_lemma_on(Graph::from_edges(6, edges), 0.5);
    if (HasFatalFailure()) return;
  }
}

TEST(ApproxMcmExhaustive, RandomSamplesAt7And8Vertices) {
  // The full spaces (2^21, 2^28) are out of reach; sample edge subsets
  // uniformly instead, still against the exact oracle.
  Rng rng(9);
  for (const VertexId n : {7u, 8u}) {
    const EdgeList pairs = all_pairs(n);
    for (int trial = 0; trial < 400; ++trial) {
      const std::uint64_t mask =
          rng() & ((std::uint64_t{1} << pairs.size()) - 1);
      EdgeList edges;
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        if ((mask >> i) & 1) edges.push_back(pairs[i]);
      }
      const Graph g = Graph::from_edges(n, edges);
      for (const double eps : {0.5, 0.34}) {
        check_lemma_on(g, eps);
        if (HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace matchsparse
