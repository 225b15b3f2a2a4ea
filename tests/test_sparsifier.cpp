#include "sparsify/sparsifier.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "gen/generators.hpp"
#include "graph/measures.hpp"
#include "matching/blossom.hpp"
#include "util/sparse_array.hpp"

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

// One sampling scheme: every G_Δ builder takes a seed, and none draws
// from a caller's Rng stream.
template <typename R>
concept BuildsFromStream = requires(const Graph& g, R& rng) {
  sparsify(g, VertexId{1}, rng);
} || requires(const Graph& g, R& rng) { sparsify_edges(g, VertexId{1}, rng); };
static_assert(!BuildsFromStream<Rng>);

TEST(Sparsifier, SubgraphOfInput) {
  Rng rng(1);
  const Graph g = gen::erdos_renyi(100, 20.0, rng);
  const EdgeList edges = sparsify_edges(g, 4, rng());
  for (const Edge& e : edges) EXPECT_TRUE(g.has_edge(e.u, e.v));
}

TEST(Sparsifier, LowDegreeVerticesKeepWholeNeighborhood) {
  // Vertices with deg <= 2Δ contribute every incident edge (paper tweak),
  // so on a graph with max degree <= 2Δ the sparsifier is the whole graph.
  Rng rng(2);
  const Graph g = gen::erdos_renyi(80, 5.0, rng);
  const VertexId delta = (g.max_degree() + 1) / 2;
  const EdgeList edges = sparsify_edges(g, delta, rng());
  EXPECT_EQ(edges.size(), g.num_edges());
}

TEST(Sparsifier, SizeBoundNDelta) {
  // |E_Δ| <= 2Δ·n (each vertex marks at most 2Δ edges with the tweak).
  Rng rng(3);
  const Graph g = gen::complete_graph(200);
  const VertexId delta = 5;
  const EdgeList edges = sparsify_edges(g, delta, rng());
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
  const EdgeList edges = sparsify_edges(g, 10, rng());
  EXPECT_GE(edges.size(), 64u * 10 / 2);
  EXPECT_LE(edges.size(), 64u * 10);
  std::set<std::uint64_t> keys;
  for (const Edge& e : edges) keys.insert(edge_key(e));
  EXPECT_EQ(keys.size(), edges.size());  // canonical, deduplicated
}

TEST(Sparsifier, DeterministicUnderSeed) {
  Rng g_rng(5);
  const Graph g = gen::erdos_renyi(150, 30.0, g_rng);
  EXPECT_EQ(sparsify_edges(g, 6, 99), sparsify_edges(g, 6, 99));
}

TEST(Sparsifier, ObservationSizeBound) {
  // Observation 2.10: |E_Δ| <= 2|MCM|(Δ+β); with the 2Δ tweak the marks
  // double, so test against 2|MCM|(2Δ+β).
  Rng rng(6);
  const VertexId beta = 1;
  const Graph g = gen::complete_graph(120);
  const VertexId delta = 8;
  const EdgeList edges = sparsify_edges(g, delta, rng());
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
  const Graph gd = sparsify(g, delta, 8);
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
  SparsifierStats stats;
  (void)sparsify(g, delta, rng(), 1, &stats);
  // Each vertex: 1 degree probe + at most 2Δ neighbor probes.
  EXPECT_LE(stats.probes, static_cast<std::uint64_t>(n) * (2 * delta + 1));
  EXPECT_LT(stats.probes, 2 * g.num_edges());
}

TEST(Sparsifier, StatsPopulated) {
  Rng rng(10);
  const Graph g = gen::complete_graph(100);
  SparsifierStats stats;
  const Graph gd = sparsify(g, 5, 11, 1, &stats);
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
  const EdgeList edges = sparsify_edges(g, 3, rng());
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0], Edge(0, 1));
}

// The draw Thm 2.1's proof assumes: each vertex marks a uniform Δ-subset
// of its positions, independently of every other vertex. G_Δ's edge set
// hides who marked an edge, so these tests read draw_marks itself, over
// rows v = 0, 1, ... of one degree at a fixed seed.
struct DrawCell {
  VertexId deg;
  VertexId delta;
  std::uint64_t seed;
};

const DrawCell kDrawCells[] = {{17, 8, 3}, {40, 8, 1}, {1000, 37, 2}};
constexpr VertexId kDrawRows = 20000;

// The marks of rows [0, kDrawRows), Δ positions per row.
std::vector<VertexId> draw_rows(const DrawCell& c) {
  SparseArray<EdgeIndex> pos(c.deg);
  std::vector<VertexId> marks(static_cast<std::size_t>(kDrawRows) * c.delta);
  for (VertexId v = 0; v < kDrawRows; ++v) {
    draw_marks(c.deg, c.delta, c.seed, v, pos,
               std::span(marks).subspan(std::size_t{v} * c.delta, c.delta));
  }
  return marks;
}

// Σ (O − E)² / (E·(1 − p)) over cells whose count is Binomial(rows, p)
// under the null; its mean is exactly the cell count.
double normalised_chi_square(const std::vector<std::uint64_t>& observed,
                             double expected, double p) {
  double sum = 0.0;
  for (const std::uint64_t o : observed) {
    const double d = static_cast<double>(o) - expected;
    sum += d * d / (expected * (1.0 - p));
  }
  return sum;
}

// Wilson–Hilferty quantile of χ²_k at standard-normal deviate z.
double chi_square_quantile(double k, double z) {
  const double h = 2.0 / (9.0 * k);
  return k * std::pow(1.0 - h + z * std::sqrt(h), 3.0);
}

// Checks a statistic against the bounds that leave 1e-6 in its two tails
// (z = ±5), treating it as a scaled χ² with its exact null mean and
// variance: k = 2·mean²/var degrees of freedom, scale var/(2·mean).
void expect_within_null(double stat, double mean, double var,
                        const std::string& label) {
  const double k = 2.0 * mean * mean / var;
  const double scale = var / (2.0 * mean);
  EXPECT_GT(stat, scale * chi_square_quantile(k, -5.0)) << label << stat;
  EXPECT_LT(stat, scale * chi_square_quantile(k, 5.0)) << label << stat;
}

// Null variance of normalised_chi_square over cells with hit probability
// p whose per-row covariances are c0 (a cell with itself) and c1, c2 for
// the n1, n2 other cells in each overlap class: 2·tr(Σ²)/(p(1 − p))².
double cell_variance(double cells, double p, double c0, double n1, double c1,
                     double n2, double c2) {
  const double trace = cells * (c0 * c0 + n1 * c1 * c1 + n2 * c2 * c2);
  return 2.0 * trace / (p * (1.0 - p) * p * (1.0 - p));
}

TEST(SparsifierDraw, PositionFrequenciesAreUniform) {
  for (const DrawCell& c : kDrawCells) {
    const std::vector<VertexId> marks = draw_rows(c);
    std::vector<std::uint64_t> hits(c.deg, 0);
    for (VertexId v = 0; v < kDrawRows; ++v) {
      std::set<VertexId> row;
      for (VertexId t = 0; t < c.delta; ++t) {
        const VertexId p = marks[std::size_t{v} * c.delta + t];
        ASSERT_LT(p, c.deg);
        row.insert(p);
        ++hits[p];
      }
      ASSERT_EQ(row.size(), c.delta) << "row " << v << " repeats a mark";
    }
    // A row's marks are drawn without replacement, so the counts are
    // negatively correlated; (d−1)/d rescales the statistic to χ²_{d−1}.
    const double p = static_cast<double>(c.delta) / c.deg;
    const double k = c.deg - 1.0;
    const double stat =
        normalised_chi_square(hits, kDrawRows * p, p) * k / c.deg;
    expect_within_null(stat, k, 2.0 * k,
                       "d=" + std::to_string(c.deg) + ": χ² ");
  }
}

TEST(SparsifierDraw, PairwiseInclusionMatchesUniformSubsets) {
  for (const DrawCell& c : kDrawCells) {
    const std::vector<VertexId> marks = draw_rows(c);
    // Every pair of positions is marked together with probability
    // Δ(Δ−1)/(d(d−1)).
    std::vector<std::uint64_t> both(std::size_t{c.deg} * c.deg, 0);
    for (VertexId v = 0; v < kDrawRows; ++v) {
      const VertexId* row = &marks[std::size_t{v} * c.delta];
      for (VertexId s = 0; s < c.delta; ++s) {
        for (VertexId t = 0; t < c.delta; ++t) {
          if (row[s] < row[t]) ++both[std::size_t{row[s]} * c.deg + row[t]];
        }
      }
    }
    std::vector<std::uint64_t> pairs;
    for (VertexId a = 0; a < c.deg; ++a) {
      for (VertexId b = a + 1; b < c.deg; ++b) {
        pairs.push_back(both[std::size_t{a} * c.deg + b]);
      }
    }
    // Inclusion of 2, 3 and 4 given positions.
    const double d = c.deg;
    const double m = c.delta;
    const double p2 = m * (m - 1) / (d * (d - 1));
    const double p3 = p2 * (m - 2) / (d - 2);
    const double p4 = p3 * (m - 3) / (d - 3);
    const double cells = static_cast<double>(pairs.size());
    const double stat = normalised_chi_square(pairs, kDrawRows * p2, p2);
    // A pair shares one position with 2(d−2) pairs and none with the rest.
    const double var =
        cell_variance(cells, p2, p2 * (1 - p2), 2 * (d - 2), p3 - p2 * p2,
                      (d - 2) * (d - 3) / 2, p4 - p2 * p2);
    expect_within_null(stat, cells, var,
                       "d=" + std::to_string(c.deg) + ": pair statistic ");
  }
}

TEST(SparsifierDraw, NeighbouringVerticesDrawIndependently) {
  for (const DrawCell& c : kDrawCells) {
    const std::vector<VertexId> marks = draw_rows(c);
    // Rows (2k, 2k+1): p in S_2k and q in S_2k+1 with probability (Δ/d)²
    // for every (p, q), and |S_2k ∩ S_2k+1| is hypergeometric.
    const VertexId row_pairs = kDrawRows / 2;
    std::vector<std::uint64_t> joint(std::size_t{c.deg} * c.deg, 0);
    std::uint64_t overlap = 0;
    for (VertexId k = 0; k < row_pairs; ++k) {
      const VertexId* a = &marks[std::size_t{2 * k} * c.delta];
      const VertexId* b = a + c.delta;
      for (VertexId s = 0; s < c.delta; ++s) {
        for (VertexId t = 0; t < c.delta; ++t) {
          ++joint[std::size_t{a[s]} * c.deg + b[t]];
          overlap += a[s] == b[t];
        }
      }
    }
    const double d = c.deg;
    const double m = c.delta;
    const double q = m / d;
    const double p2 = m * (m - 1) / (d * (d - 1));
    const double cells = d * d;
    const double stat = normalised_chi_square(joint, row_pairs * q * q, q * q);
    // A cell shares its row position with d−1 cells, its column position
    // with d−1 more, and neither with (d−1)².
    const double q4 = q * q * q * q;
    const double var = cell_variance(cells, q * q, q * q - q4, 2 * (d - 1),
                                     q * p2 - q4, (d - 1) * (d - 1),
                                     p2 * p2 - q4);
    expect_within_null(stat, cells, var,
                       "d=" + std::to_string(c.deg) + ": joint statistic ");
    const double mean = m * q;
    const double overlap_var = m * q * (1.0 - q) * (d - m) / (d - 1.0);
    const double z = (static_cast<double>(overlap) - row_pairs * mean) /
                     std::sqrt(row_pairs * overlap_var);
    EXPECT_LT(std::abs(z), 5.0) << "d=" << c.deg << ": overlap z " << z;
  }
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
