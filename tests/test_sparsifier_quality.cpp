// Statistical validation of Theorem 2.1: across the bounded-β families,
// the practically-scaled G_Δ preserves the MCM within (1+ε) in (nearly)
// every trial. These are property sweeps — the bench harness measures the
// same quantity at scale.
#include <gtest/gtest.h>

#include "gen/families.hpp"
#include "matching/blossom.hpp"
#include "sparsify/sparsifier.hpp"
#include "util/rng.hpp"

namespace matchsparse {
namespace {

struct QualityCase {
  const char* family;
  VertexId n;
  double eps;
};

class SparsifierQualityTest : public ::testing::TestWithParam<QualityCase> {};

TEST_P(SparsifierQualityTest, RatioWithinOnePlusEps) {
  const auto& param = GetParam();
  const auto& family = gen::find_family(param.family);
  int failures = 0;
  constexpr int kTrials = 5;
  for (int trial = 0; trial < kTrials; ++trial) {
    const Graph g = family.make(param.n, 1000 + trial);
    const VertexId delta =
        SparsifierParams::practical(family.beta_bound, param.eps).delta;
    Rng rng(2000 + trial);
    const Graph gd = sparsify(g, delta, rng());
    const VertexId full = blossom_mcm(g).size();
    const VertexId sparse = blossom_mcm(gd).size();
    ASSERT_LE(sparse, full);
    if (static_cast<double>(sparse) * (1.0 + param.eps) <
        static_cast<double>(full)) {
      ++failures;
    }
  }
  // "With high probability": allow at most one unlucky trial.
  EXPECT_LE(failures, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Families, SparsifierQualityTest,
    ::testing::Values(QualityCase{"line", 300, 0.3},
                      QualityCase{"line", 300, 0.15},
                      QualityCase{"unitdisk", 300, 0.3},
                      QualityCase{"cliqueunion", 300, 0.3},
                      QualityCase{"unitint", 300, 0.3},
                      QualityCase{"complete", 150, 0.3},
                      QualityCase{"complete", 150, 0.1}),
    [](const auto& param_info) {
      return std::string(param_info.param.family) + "_n" +
             std::to_string(param_info.param.n) + "_eps" +
             std::to_string(static_cast<int>(param_info.param.eps * 100));
    });

TEST(SparsifierQuality, TinyDeltaDegradesGracefully) {
  // With Δ = 1 on K_n the matching must still be reasonably large (each
  // vertex contributes an edge), but exactness is not expected.
  Rng rng(1);
  const Graph g = gen::complete_graph(100);
  const Graph gd = sparsify(g, 1, rng());
  const VertexId kept = blossom_mcm(gd).size();
  EXPECT_GE(kept, 25u);
  EXPECT_LE(kept, 50u);
}

TEST(SparsifierQuality, BridgeEdgeRarelyKept) {
  // Observation 2.14 shape: P[bridge in G_Δ] <= 4Δ/n (up to the 2Δ tweak).
  const VertexId n = 402;  // halves of 201 (odd)
  Edge bridge;
  const Graph g = gen::two_cliques_bridge(n, &bridge);
  const VertexId delta = 5;
  int kept = 0;
  constexpr int kTrials = 60;
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng rng(5000 + trial);
    const EdgeList edges = sparsify_edges(g, delta, rng());
    kept += std::binary_search(edges.begin(), edges.end(), bridge);
  }
  // Expected keep rate ~ 2*(2Δ)/(n/2) ≈ 0.1; 60 trials should stay well
  // below half.
  EXPECT_LT(kept, kTrials / 2);
}

}  // namespace
}  // namespace matchsparse
