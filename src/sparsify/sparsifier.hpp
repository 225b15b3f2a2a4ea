// The paper's core contribution: the random matching sparsifier G_Δ.
//
// Construction (Section 2): every vertex marks Δ incident edges uniformly
// at random without replacement (all of them if deg <= Δ); G_Δ is the set
// of marked edges. Theorem 2.1: for Δ = 20·(β/ε)·ln(24/ε), G_Δ is a
// (1+ε)-matching sparsifier with high probability.
//
// The builder follows Section 3.1 exactly: the input graph is a read-only
// adjacency array, and the Δ samples per vertex are drawn by an *implicit*
// Fisher–Yates shuffle over an O(1)-initialisable SparseArray of positions
// (pos_v), giving deterministic O(Δ) time per vertex without copying or
// writing to the adjacency arrays. Per the paper's tweak, vertices of
// degree <= 2Δ contribute their entire neighborhood (this at most doubles
// the size/arboricity bounds and removes the low-degree sampling corner
// case).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "util/sparse_array.hpp"

namespace matchsparse {

/// Parameters of the sparsifier construction.
struct SparsifierParams {
  /// Edges marked per vertex.
  VertexId delta = 0;

  /// The largest Δ either formula returns (a tiny ε lands here): 2Δ
  /// still fits the VertexId test `deg <= 2 * delta` and exceeds every
  /// degree, so G_Δ = G, which is what the formula asks for.
  static constexpr VertexId kMaxDelta =
      std::numeric_limits<VertexId>::max() / 2;

  /// The paper's Theorem 2.1 constants: Δ = ceil(20·(β/ε)·ln(24/ε)),
  /// clamped to [1, kMaxDelta]. This is the value for which the (1+ε)
  /// proof goes through.
  static SparsifierParams theoretical(VertexId beta, double eps);

  /// A practically tuned Δ = ceil(scale·(β/ε)·ln(24/ε)), clamped to
  /// [1, kMaxDelta]. The proof's constant 20 is loose; experiments
  /// (bench_sparsifier_quality) show the (1+ε) guarantee is already met
  /// empirically at scale ~ 1–2, which is what a deployment would use.
  /// Defaults to scale = 2.
  static SparsifierParams practical(VertexId beta, double eps,
                                    double scale = 2.0);
};

/// Statistics reported by sparsify. The three timing fields partition
/// the build:
///   mark_seconds  — the marking pass alone;
///   build_seconds — the CSR construction from the marks alone;
///   total_seconds — end-to-end, == mark_seconds + build_seconds up to
///                   clock reads.
struct SparsifierStats {
  std::uint64_t probes = 0;       // adjacency-array accesses (all shards)
  std::uint64_t marked = 0;       // marks placed (before dedup)
  std::uint64_t edges = 0;        // distinct edges in G_Δ
  double mark_seconds = 0.0;      // marking pass alone
  double build_seconds = 0.0;     // CSR construction alone
  double total_seconds = 0.0;     // end-to-end
  /// Per-shard probe counts, one per lane; `probes` is their sum,
  /// aggregated after the join so the workers never share a counter.
  std::vector<std::uint64_t> shard_probes;
  /// Set by build_matching_sparsifier when max degree <= 2Δ, where G_Δ is
  /// G and the build is a copy of it: nothing is read (probes 0), every
  /// edge counts as marked from both ends (marked 2m, edges m), and the
  /// copy's time is all build_seconds. sparsify never sets it.
  bool identity = false;
};

/// The §3.1 draw behind every G_Δ build, for a vertex v of degree
/// deg > Δ: writes Δ distinct adjacency positions, a uniform Δ-subset of
/// [0, deg), to picks[0, Δ). It is an implicit Fisher–Yates over `pos`
/// (capacity >= deg, reset here in O(1)), so the adjacency array is never
/// copied or written, drawn from the substream mix64(seed, v): the marks
/// are a function of (deg, Δ, seed, v) alone, so vertices draw
/// independently and in any order.
void draw_marks(VertexId deg, VertexId delta, std::uint64_t seed, VertexId v,
                SparseArray<EdgeIndex>& pos, std::span<VertexId> picks);

/// Builds G_Δ in O(n·Δ) probes: each vertex of degree > 2Δ marks the
/// edges at its draw_marks positions, every other vertex marks all of its
/// edges, and the CSR build (Graph::from_edge_shards_parallel) drops the
/// edges both endpoints marked. G_Δ is a function of (g, delta, seed)
/// alone: `lanes` sets how many vertex ranges are marked and built
/// concurrently on default_pool(), never which edges G_Δ holds. One lane
/// runs on the calling thread and submits nothing to the pool; 0 means
/// the pool's size. The mark lists' bytes are charged to the active
/// guard ("sparsifier mark buffer") until the CSR build returns.
/// `stats`, if given, receives probe accounting (total and per lane),
/// mark and edge counts, and the phase times. Pass a well-mixed seed
/// (an Rng draw, say), not a counter: under mix64, seed s + 1 hands
/// each vertex the substream some vertex about 64 ids away had under
/// seed s, so counter seeds draw shifted copies of one set of marks.
Graph sparsify(const Graph& g, VertexId delta, std::uint64_t seed,
               std::size_t lanes = 1, SparsifierStats* stats = nullptr);

/// The marks of sparsify(g, delta, seed) as a canonical (sorted,
/// deduplicated) edge list, drawn on the calling thread:
/// Graph::from_edges(n, sparsify_edges(g, delta, seed)) equals
/// sparsify(g, delta, seed, lanes) at every lane count.
EdgeList sparsify_edges(const Graph& g, VertexId delta, std::uint64_t seed);

/// Deterministic marking rules for the Lemma 2.13 experiments: any fixed
/// rule has approximation ratio as bad as n/(2Δ) on K_n − e instances.
enum class DeterministicRule {
  kFirstDelta,   // mark the first Δ adjacency positions
  kLastDelta,    // mark the last Δ positions
  kStride,       // mark Δ evenly spaced positions
};

EdgeList sparsify_edges_deterministic(const Graph& g, VertexId delta,
                                      DeterministicRule rule);

}  // namespace matchsparse
