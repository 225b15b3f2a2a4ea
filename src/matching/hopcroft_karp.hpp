// Hopcroft–Karp maximum matching for bipartite graphs — the (1+ε) black
// box the paper cites ([51, 52]): truncating after ⌈1/ε⌉ phases yields a
// (1+ε)-approximate MCM in O(m/ε) time; running to completion is exact in
// O(m·sqrt(n)).
#pragma once

#include <cstdint>
#include <vector>

#include "matching/matching.hpp"

namespace matchsparse {

struct Bipartition {
  bool bipartite = false;
  /// side[v] in {0, 1}; meaningful only if bipartite.
  std::vector<std::uint8_t> side;
};

/// 2-colors g by BFS; bipartite=false if an odd cycle exists.
Bipartition two_color(const Graph& g);

/// Hopcroft–Karp. `max_phases < 0` runs to the exact optimum; otherwise the
/// algorithm stops after max_phases phases, guaranteeing a
/// (1 + 1/max_phases)-approximation. g must be bipartite (MS_CHECK).
/// The O(n) working arrays are charged to the active guard ("matching.hk
/// arrays") before they are allocated.
Matching hopcroft_karp(const Graph& g, int max_phases = -1);

/// Phase count for a (1+eps) guarantee: ceil(1/eps), clamped to INT_MAX.
int hk_phases_for_eps(double eps);

}  // namespace matchsparse
