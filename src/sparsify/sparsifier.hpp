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
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace matchsparse {

class ThreadPool;

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

/// Statistics reported by the builder. The three timing fields have the
/// same meaning on every path (serial, parallel edge-list, fused
/// parallel CSR):
///   mark_seconds  — the marking pass alone (sampling + dedup of the
///                   marked edge list on the serial path);
///   build_seconds — turning marks into the output alone (CSR
///                   construction, or the shard merge for the edge-list
///                   builder) — marking excluded;
///   total_seconds — end-to-end, == mark_seconds + build_seconds up to
///                   clock reads.
struct SparsifierStats {
  std::uint64_t probes = 0;       // adjacency-array accesses (all shards)
  std::uint64_t marked = 0;       // marks placed (before dedup)
  std::uint64_t edges = 0;        // distinct edges in G_Δ
  double mark_seconds = 0.0;      // marking pass alone
  double build_seconds = 0.0;     // CSR/merge construction alone
  double total_seconds = 0.0;     // end-to-end
  /// Per-shard probe counts on the parallel paths (empty on the serial
  /// path); `probes` is their sum, aggregated after the join so the
  /// workers never share a counter.
  std::vector<std::uint64_t> shard_probes;
  /// Set by build_matching_sparsifier when max degree <= 2Δ, where G_Δ is
  /// G and the build is a copy of it: nothing is read (probes 0), every
  /// edge counts as marked from both ends (marked 2m, edges m), and the
  /// copy's time is all build_seconds. The sparsify* builders never set it.
  bool identity = false;
};

/// Builds the marked-edge list of G_Δ. Deterministic O(n·Δ) time; the
/// returned list is canonical (sorted, deduplicated). `meter`, if given,
/// counts adjacency probes (degree reads and neighbor reads);
/// `marked_out`, if given, receives the pre-dedup mark count.
EdgeList sparsify_edges(const Graph& g, VertexId delta, Rng& rng,
                        ProbeMeter* meter = nullptr,
                        std::uint64_t* marked_out = nullptr);

/// Convenience: materialises G_Δ as a Graph (same vertex set as g).
Graph sparsify(const Graph& g, VertexId delta, Rng& rng,
               SparsifierStats* stats = nullptr);

/// Parallel construction of G_Δ: every vertex samples from its own RNG
/// substream derived as mix64(seed, v), so the output is a deterministic
/// function of (g, delta, seed) — identical for any thread count — and
/// vertex ranges shard perfectly across a thread pool. The marking
/// distribution is the same as sparsify_edges (uniform Δ-subsets,
/// independent across vertices — per-vertex independence is exactly what
/// Theorem 2.1's proof uses). `threads` = 0 picks the hardware default;
/// work runs on the shared default_pool(), `threads` only bounds the
/// shard (lane) count. `stats`, if given, receives probe accounting
/// (total and per shard), mark and edge counts, and the build time.
EdgeList sparsify_edges_parallel(const Graph& g, VertexId delta,
                                 std::uint64_t seed,
                                 std::size_t threads = 0,
                                 SparsifierStats* stats = nullptr);

/// Fused parallel pipeline: sharded marking feeding straight into the
/// parallel CSR builder, with no intermediate globally-sorted edge list —
/// duplicate marks are removed per adjacency list inside the CSR build
/// (Graph::from_edge_shards_parallel), since an edge marked by both
/// endpoints can only ever duplicate *within* its endpoints' lists.
/// Sampling is the per-vertex mix64(seed, v) substream scheme of
/// sparsify_edges_parallel, so for a fixed (g, delta, seed) the returned
/// Graph is identical for every shard/thread count — and identical to
/// Graph::from_edges(n, sparsify_edges_parallel(g, delta, seed)).
/// `shards` = 0 uses pool.size() lanes.
Graph sparsify_parallel(const Graph& g, VertexId delta, std::uint64_t seed,
                        ThreadPool& pool, SparsifierStats* stats = nullptr,
                        std::size_t shards = 0);

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
