#include "core/api.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "gen/families.hpp"
#include "matching/blossom.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace matchsparse {
namespace {

// Structural equality of two CSR graphs: offsets (through the degrees),
// adjacency, max degree and non-isolated count.
void expect_same_graph(const Graph& a, const Graph& b,
                       const std::string& label) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices()) << label;
  EXPECT_EQ(a.num_edges(), b.num_edges()) << label;
  EXPECT_EQ(a.max_degree(), b.max_degree()) << label;
  EXPECT_EQ(a.num_non_isolated(), b.num_non_isolated()) << label;
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << label << ", vertex " << v;
  }
}

VertexId delta_of(const ApproxMatchingConfig& cfg) {
  return SparsifierParams::practical(cfg.beta, cfg.eps, cfg.delta_scale)
      .delta;
}

TEST(Api, VersionIsSet) { EXPECT_STRNE(version(), ""); }

TEST(Api, ApproxMatchingOnDenseBoundedBetaGraph) {
  const Graph g = gen::complete_graph(200);
  ApproxMatchingConfig cfg;
  cfg.beta = 1;
  cfg.eps = 0.2;
  const auto result = approx_maximum_matching(g, cfg);
  EXPECT_TRUE(result.matching.is_valid(g));
  // K_200 has a perfect matching of 100.
  EXPECT_GE(static_cast<double>(result.matching.size()) * 1.2, 100.0);
  EXPECT_LT(result.probes, 2 * g.num_edges());  // sublinear reads
  EXPECT_GT(result.sparsifier_edges, 0u);
  EXPECT_EQ(result.delta,
            SparsifierParams::practical(1, 0.2, 2.0).delta);
}

TEST(Api, TheoreticalDeltaIsLarger) {
  ApproxMatchingConfig practical;
  practical.beta = 2;
  ApproxMatchingConfig theoretical = practical;
  theoretical.theoretical_delta = true;
  const Graph g = gen::complete_graph(64);
  const auto a = approx_maximum_matching(g, practical);
  const auto b = approx_maximum_matching(g, theoretical);
  EXPECT_GT(b.delta, a.delta);
}

TEST(Api, DeterministicUnderSeed) {
  const Graph g = gen::find_family("unitdisk").make(300, 3);
  ApproxMatchingConfig cfg;
  cfg.beta = 5;
  cfg.seed = 42;
  const auto a = approx_maximum_matching(g, cfg);
  const auto b = approx_maximum_matching(g, cfg);
  EXPECT_EQ(a.matching.edges(), b.matching.edges());
}

TEST(Api, QualityAcrossFamilies) {
  for (const auto& family : gen::standard_families()) {
    const VertexId n = family.name == "complete" ? 120 : 400;
    const Graph g = family.make(n, 11);
    ApproxMatchingConfig cfg;
    cfg.beta = family.beta_bound;
    cfg.eps = 0.25;
    const auto result = approx_maximum_matching(g, cfg);
    const VertexId opt = blossom_mcm(g).size();
    EXPECT_TRUE(result.matching.is_valid(g)) << family.name;
    EXPECT_GE(static_cast<double>(result.matching.size()) * 1.25,
              static_cast<double>(opt))
        << family.name;
  }
}

TEST(Api, SparsifierBuilderMatchesConfig) {
  const Graph g = gen::complete_graph(100);
  ApproxMatchingConfig cfg;
  cfg.beta = 1;
  cfg.eps = 0.3;
  SparsifierStats stats;
  const Graph gd = build_matching_sparsifier(g, cfg, &stats);
  EXPECT_EQ(stats.edges, gd.num_edges());
  for (const Edge& e : gd.edge_list()) EXPECT_TRUE(g.has_edge(e.u, e.v));
}

TEST(Api, IdentityRegimeReturnsTheGraph) {
  // With max degree <= 2Δ every vertex keeps its whole neighbourhood, so
  // G_Δ is G on every lane count and the build is a copy.
  struct Input {
    std::string name;
    VertexId beta;
    Graph g;
  };
  const std::vector<Input> inputs = {
      {"unitdisk", 5, gen::find_family("unitdisk").make(400, 3)},
      {"line", 2, gen::find_family("line").make(400, 4)},
      {"cliqueunion", 4, gen::find_family("cliqueunion").make(500, 5)},
  };
  for (const Input& in : inputs) {
    ApproxMatchingConfig cfg;
    cfg.beta = in.beta;
    cfg.seed = 21;
    ASSERT_LE(in.g.max_degree(), 2 * delta_of(cfg)) << in.name;
    for (const std::size_t threads : {1u, 2u, 0u}) {
      cfg.threads = threads;
      const std::string label =
          in.name + ", threads " + std::to_string(threads);
      obs::Registry registry;
      const obs::ScopedMetricsRegistry scope(registry);
      SparsifierStats stats;
      const Graph gd = build_matching_sparsifier(in.g, cfg, &stats);
      expect_same_graph(gd, in.g, label);
      EXPECT_TRUE(stats.identity) << label;
      EXPECT_EQ(stats.probes, 0u) << label;
      EXPECT_EQ(stats.edges, in.g.num_edges()) << label;
      EXPECT_EQ(stats.marked, 2 * in.g.num_edges()) << label;
      EXPECT_EQ(registry.snapshot().counter_value("sparsify.identity"), 1u)
          << label;
      (void)build_matching_sparsifier(in.g, cfg);
      EXPECT_EQ(registry.snapshot().counter_value("sparsify.identity"), 2u)
          << label;
    }
  }

  // The boundary: max degree exactly 2Δ still copies; 2Δ + 1 samples.
  ApproxMatchingConfig cfg;
  cfg.beta = 1;
  cfg.eps = 0.5;
  const VertexId delta = delta_of(cfg);
  const Graph at = gen::complete_graph(2 * delta + 1);
  const Graph above = gen::complete_graph(2 * delta + 2);
  ASSERT_EQ(at.max_degree(), 2 * delta);
  for (const std::size_t threads : {1u, 2u, 0u}) {
    cfg.threads = threads;
    const std::string label = "threads " + std::to_string(threads);
    SparsifierStats at_stats;
    expect_same_graph(build_matching_sparsifier(at, cfg, &at_stats), at,
                      label);
    EXPECT_TRUE(at_stats.identity) << label;
    SparsifierStats above_stats;
    (void)build_matching_sparsifier(above, cfg, &above_stats);
    EXPECT_FALSE(above_stats.identity) << label;
    EXPECT_GT(above_stats.probes, 0u) << label;
    const std::size_t lanes = std::min<std::size_t>(
        threads == 0 ? default_pool().size() : threads, above.num_vertices());
    EXPECT_EQ(above_stats.shard_probes.size(), lanes) << label;
  }
}

TEST(Api, IdentityRegimeGoldenMateHashes) {
  // Pins approx_maximum_matching's output where G_Δ = G, so a change to
  // how the identity regime reaches the matcher cannot move a mate.
  struct Input {
    std::string name;
    VertexId beta;
    Graph g;
    std::uint64_t golden;
  };
  const std::vector<Input> inputs = {
      {"unitdisk", 5, gen::find_family("unitdisk").make(2000, 31),
       0x65d0cf0b75e8461fu},
      {"line", 2, gen::find_family("line").make(2000, 32),
       0x7c97728d50c6b8eeu},
      {"cliqueunion", 4, gen::find_family("cliqueunion").make(2000, 33),
       0x970d8d34a2a38e2du},
  };
  for (const Input& in : inputs) {
    ApproxMatchingConfig cfg;
    cfg.beta = in.beta;
    cfg.eps = 0.25;
    cfg.seed = 41;
    ASSERT_LE(in.g.max_degree(), 2 * delta_of(cfg)) << in.name;
    for (const std::size_t threads : {1u, 0u}) {
      cfg.threads = threads;
      const ApproxMatchingResult r = approx_maximum_matching(in.g, cfg);
      std::uint64_t h = in.g.num_vertices();
      for (VertexId v = 0; v < in.g.num_vertices(); ++v) {
        h = mix64(h, r.matching.mate(v));
      }
      EXPECT_EQ(h, in.golden)
          << in.name << ", threads " << threads << ": 0x" << std::hex << h;
      EXPECT_EQ(r.sparsifier_edges, in.g.num_edges()) << in.name;
      EXPECT_EQ(r.probes, 0u) << in.name;
    }
  }
}

TEST(Api, ParallelThreadsProduceIdenticalSparsifier) {
  // Max degree 499 > 2Δ = 384, so the build samples on the sharded path.
  const Graph g = gen::complete_graph(500);
  ApproxMatchingConfig cfg;
  cfg.beta = 4;
  cfg.seed = 21;
  cfg.threads = 2;
  SparsifierStats two;
  const Graph gd2 = build_matching_sparsifier(g, cfg, &two);
  cfg.threads = 7;
  SparsifierStats seven;
  const Graph gd7 = build_matching_sparsifier(g, cfg, &seven);
  // The parallel pipeline is a deterministic function of (g, Δ, seed):
  // identical graphs — and identical probe totals — at any lane count.
  EXPECT_EQ(gd2.edge_list(), gd7.edge_list());
  EXPECT_EQ(two.probes, seven.probes);
  EXPECT_EQ(two.shard_probes.size(), 2u);
  EXPECT_EQ(seven.shard_probes.size(), 7u);
  for (const Edge& e : gd2.edge_list()) EXPECT_TRUE(g.has_edge(e.u, e.v));
}

TEST(Api, EveryThreadCountBuildsTheSameSparsifier) {
  // Max degree 499 > 2Δ = 384: G_Δ is sampled, one scheme at every lane
  // count, so the matching, G_Δ and the probes agree across all of them.
  const Graph g = gen::complete_graph(500);
  ApproxMatchingConfig cfg;
  cfg.beta = 4;
  cfg.seed = 21;
  ASSERT_FALSE(sparsifier_is_graph(g, cfg));
  cfg.threads = 1;
  const ApproxMatchingResult one = approx_maximum_matching(g, cfg);
  SparsifierStats one_stats;
  const EdgeList one_edges = build_matching_sparsifier(g, cfg, &one_stats)
                                 .edge_list();
  EXPECT_EQ(one.probes, one_stats.probes);
  EXPECT_EQ(one.sparsifier_edges, one_edges.size());
  for (const std::size_t threads : {2u, 7u, 0u}) {
    cfg.threads = threads;
    const std::string label = "threads " + std::to_string(threads);
    const ApproxMatchingResult r = approx_maximum_matching(g, cfg);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(r.matching.mate(v), one.matching.mate(v))
          << label << ", vertex " << v;
    }
    EXPECT_EQ(r.sparsifier_edges, one.sparsifier_edges) << label;
    EXPECT_EQ(r.probes, one.probes) << label;
    SparsifierStats stats;
    EXPECT_EQ(build_matching_sparsifier(g, cfg, &stats).edge_list(),
              one_edges)
        << label;
    EXPECT_EQ(stats.probes, one_stats.probes) << label;
  }
}

TEST(Api, ParallelPathMatchesQualityAndReportsProbes) {
  const Graph g = gen::complete_graph(200);
  ApproxMatchingConfig cfg;
  cfg.beta = 1;
  cfg.eps = 0.2;
  cfg.threads = 0;  // all hardware threads via the shared pool
  const auto result = approx_maximum_matching(g, cfg);
  EXPECT_TRUE(result.matching.is_valid(g));
  EXPECT_GE(static_cast<double>(result.matching.size()) * 1.2, 100.0);
  EXPECT_GT(result.probes, 0u);  // accounting survives the parallel join
  EXPECT_LT(result.probes, 2 * g.num_edges());
}

TEST(Api, RejectsBadEps) {
  const Graph g = gen::complete_graph(10);
  ApproxMatchingConfig cfg;
  cfg.eps = 0.0;
  EXPECT_DEATH(approx_maximum_matching(g, cfg), "eps");
}

}  // namespace
}  // namespace matchsparse
