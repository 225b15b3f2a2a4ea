// Immutable CSR graph — the paper's "adjacency array representation"
// (Section 3.1): for each vertex v we can read deg(v) and the i-th
// neighbor of v in O(1), and the arrays are read-only. Sublinear-time
// algorithms in this repository interact with the graph *only* through
// this interface, and can route their accesses through a ProbeMeter so
// that experiments count exactly how much of the input was read.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge.hpp"
#include "util/common.hpp"

namespace matchsparse {

class ThreadPool;

/// Counts adjacency-array accesses ("probes"). One probe = reading one
/// neighbor entry or one degree entry, matching the query model of the
/// sublinear-time lower bounds in [Assadi–Chen–Khanna'19, Assadi–Solomon'19].
class ProbeMeter {
 public:
  void count(std::uint64_t k = 1) { probes_ += k; }
  std::uint64_t probes() const { return probes_; }
  void reset() { probes_ = 0; }

 private:
  std::uint64_t probes_ = 0;
};

class Graph {
 public:
  Graph() = default;

  /// Builds a graph on `n` vertices from an undirected edge list.
  /// Self-loops and duplicate edges are rejected via MS_CHECK (callers that
  /// may hold messy lists should normalize_edge_list() first). Neighbor
  /// lists are sorted ascending. O(n + m) when every list arrives strictly
  /// increasing, as it does from a canonical sorted list such as
  /// normalize_edge_list() or edge_list() output; each list that arrives
  /// out of order costs an O(d log d) sort.
  static Graph from_edges(VertexId n, const EdgeList& edges);

  /// Parallel drop-in for from_edges(): identical contract and an
  /// identical resulting graph (same offsets and sorted adjacency), built
  /// on `pool` with no sort at all — per-shard degree histograms, a
  /// sequential prefix sum, a race-free scatter through per-shard cursors,
  /// and a parallel transpose that writes every list in sorted order.
  static Graph from_edges_parallel(VertexId n, const EdgeList& edges,
                                   ThreadPool& pool);

  /// Parallel CSR construction straight from sharded, possibly-duplicated
  /// edge lists (e.g. the per-shard marked-edge output of the sparsifier,
  /// where an edge marked by both endpoints appears twice). After the
  /// scatter every duplicate of {u,v} lands in u's and v's lists, and the
  /// transpose that sorts the lists writes each neighbour once, so no
  /// global normalization pass is needed. Self-loops are rejected. The
  /// result is identical to from_edges() on the concatenated+normalized
  /// input, for any shard partition. One shard builds on the calling
  /// thread and submits nothing to `pool`.
  static Graph from_edge_shards_parallel(VertexId n,
                                         std::span<const EdgeList> shards,
                                         ThreadPool& pool);

  VertexId num_vertices() const {
    return offsets_.empty() ? 0 : static_cast<VertexId>(offsets_.size() - 1);
  }

  /// Number of undirected edges.
  EdgeIndex num_edges() const { return num_edges_; }

  VertexId degree(VertexId v) const {
    MS_DCHECK(v < num_vertices());
    return static_cast<VertexId>(offsets_[v + 1] - offsets_[v]);
  }

  /// i-th neighbor of v, 0 <= i < degree(v). O(1).
  VertexId neighbor(VertexId v, VertexId i) const {
    MS_DCHECK(i < degree(v));
    return adjacency_[offsets_[v] + i];
  }

  /// Probe-counted access used by sublinear algorithms.
  VertexId neighbor(VertexId v, VertexId i, ProbeMeter* meter) const {
    if (meter != nullptr) meter->count();
    return neighbor(v, i);
  }

  VertexId degree(VertexId v, ProbeMeter* meter) const {
    if (meter != nullptr) meter->count();
    return degree(v);
  }

  std::span<const VertexId> neighbors(VertexId v) const {
    MS_DCHECK(v < num_vertices());
    return {adjacency_.data() + offsets_[v],
            adjacency_.data() + offsets_[v + 1]};
  }

  /// O(log deg(u)) membership test (neighbor lists are sorted).
  bool has_edge(VertexId u, VertexId v) const;

  VertexId max_degree() const { return max_degree_; }

  /// Average degree 2m/n (0 for the empty graph).
  double average_degree() const {
    return num_vertices() == 0
               ? 0.0
               : 2.0 * static_cast<double>(num_edges_) / num_vertices();
  }

  /// Number of vertices with degree >= 1.
  VertexId num_non_isolated() const { return non_isolated_; }

  /// All edges as a canonical (u <= v) list, sorted.
  EdgeList edge_list() const;

 private:
  enum class DuplicatePolicy { kReject, kDedupPerVertex };

  static Graph build_parallel(VertexId n,
                              std::span<const std::span<const Edge>> parts,
                              ThreadPool& pool, DuplicatePolicy policy);

  std::vector<EdgeIndex> offsets_;    // size n+1
  std::vector<VertexId> adjacency_;   // size 2m
  EdgeIndex num_edges_ = 0;
  VertexId max_degree_ = 0;
  VertexId non_isolated_ = 0;
};

/// Extracts the subgraph induced by `vertices` (which must be distinct).
/// Vertex i of the result corresponds to vertices[i]. O(sum of degrees).
Graph induced_subgraph(const Graph& g, std::span<const VertexId> vertices);

}  // namespace matchsparse
