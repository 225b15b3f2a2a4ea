// Undirected edge value type and edge-list helpers.
#pragma once

#include <utility>
#include <vector>

#include "util/common.hpp"

namespace matchsparse {

/// An undirected edge. Algorithms treat {u,v} and {v,u} as the same edge;
/// normalized() canonicalises to u <= v.
struct Edge {
  VertexId u = kNoVertex;
  VertexId v = kNoVertex;

  constexpr Edge() = default;
  constexpr Edge(VertexId a, VertexId b) : u(a), v(b) {}

  constexpr Edge normalized() const {
    return u <= v ? Edge{u, v} : Edge{v, u};
  }

  /// The endpoint that is not `w` (w must be an endpoint).
  constexpr VertexId other(VertexId w) const { return w == u ? v : u; }

  constexpr bool touches(VertexId w) const { return u == w || v == w; }

  friend constexpr bool operator==(const Edge& a, const Edge& b) {
    const Edge na = a.normalized();
    const Edge nb = b.normalized();
    return na.u == nb.u && na.v == nb.v;
  }
  friend constexpr bool operator<(const Edge& a, const Edge& b) {
    const Edge na = a.normalized();
    const Edge nb = b.normalized();
    return na.u != nb.u ? na.u < nb.u : na.v < nb.v;
  }
};

using EdgeList = std::vector<Edge>;

/// 64-bit key for hashing a normalized edge.
inline std::uint64_t edge_key(const Edge& e) {
  const Edge n = e.normalized();
  return (static_cast<std::uint64_t>(n.u) << 32) | n.v;
}

/// Sorts, removes self-loops and duplicate edges in place. Input that is
/// already canonical (u < v, strictly increasing) costs linear passes
/// only: the O(m log m) sort and the dedup run only on a list out of order.
void normalize_edge_list(EdgeList& edges);

}  // namespace matchsparse
