// Property sweep: structural invariants of G_Δ that must hold for every
// (family, Δ, seed) cell — deterministically, independent of the
// randomness (only the approximation factor is probabilistic).
#include <gtest/gtest.h>

#include "gen/families.hpp"
#include "graph/measures.hpp"
#include "matching/greedy.hpp"
#include "sparsify/sparsifier.hpp"

namespace matchsparse {
namespace {

struct SweepCase {
  std::size_t family_index;
  VertexId delta;
  std::uint64_t seed;
};

class SparsifierInvariantTest : public ::testing::TestWithParam<SweepCase> {
 protected:
  void SetUp() override {
    const auto& family = gen::standard_families()[GetParam().family_index];
    const VertexId n = family.name == "complete" ? 150 : 500;
    graph_ = family.make(n, GetParam().seed);
    edges_ = sparsify_edges(graph_, GetParam().delta,
                            mix64(GetParam().seed, GetParam().delta));
  }

  Graph graph_;
  EdgeList edges_;
};

TEST_P(SparsifierInvariantTest, IsSubgraph) {
  for (const Edge& e : edges_) {
    ASSERT_TRUE(graph_.has_edge(e.u, e.v));
  }
}

TEST_P(SparsifierInvariantTest, CanonicalAndDeduplicated) {
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    ASSERT_LT(edges_[i].u, edges_[i].v);
    if (i > 0) {
      ASSERT_TRUE(edges_[i - 1] < edges_[i]);
    }
  }
}

TEST_P(SparsifierInvariantTest, SizeAtMostTwoDeltaPerVertex) {
  ASSERT_LE(edges_.size(), static_cast<std::size_t>(2 * GetParam().delta) *
                               graph_.num_vertices());
}

TEST_P(SparsifierInvariantTest, LowDegreeVerticesKeepEverything) {
  const Graph gd = Graph::from_edges(graph_.num_vertices(), edges_);
  for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
    if (graph_.degree(v) <= 2 * GetParam().delta) {
      ASSERT_EQ(gd.degree(v) >= graph_.degree(v), true) << "v=" << v;
    } else {
      ASSERT_GE(gd.degree(v), GetParam().delta) << "v=" << v;
    }
  }
}

TEST_P(SparsifierInvariantTest, ArboricityWithinFourDelta) {
  const Graph gd = Graph::from_edges(graph_.num_vertices(), edges_);
  const auto est = estimate_arboricity(gd);
  ASSERT_LE(est.lower, 4.0 * GetParam().delta);
}

TEST_P(SparsifierInvariantTest, SizeBoundAgainstMaximalMatching) {
  // Observation 2.10 with any maximal matching M (the proof only needs
  // maximality): |E_Δ| <= 2|M|(2Δ + β_bound).
  const auto& family = gen::standard_families()[GetParam().family_index];
  const Matching maximal = greedy_maximal_matching(graph_);
  if (maximal.size() == 0) return;
  ASSERT_LE(edges_.size(),
            2ull * maximal.size() *
                (2ull * GetParam().delta + family.beta_bound));
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (std::size_t f = 0; f < gen::standard_families().size(); ++f) {
    for (VertexId delta : {1u, 3u, 8u, 32u}) {
      for (std::uint64_t seed : {11u, 12u}) {
        cases.push_back({f, delta, seed});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SparsifierInvariantTest, ::testing::ValuesIn(sweep_cases()),
    [](const auto& param_info) {
      return gen::standard_families()[param_info.param.family_index].name +
             "_d" + std::to_string(param_info.param.delta) + "_s" +
             std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace matchsparse
