// (1+ε)-approximate maximum matching for general graphs via bounded-length
// augmenting paths — the general-graph counterpart of phase-truncated
// Hopcroft–Karp, standing in for the Micali–Vazirani black box the paper
// cites ([70, 83]).
//
// Folklore lemma: if a matching M admits no augmenting path with at most
// 2k−1 edges, then |M| >= k/(k+1)·|MCM|, i.e. M is a (1+1/k)-approximation.
// The matcher therefore greedily initialises (2-approx), then repeatedly
// runs depth-limited Edmonds blossom searches from free vertices and
// augments along any path found, sweeping over the free vertices until a
// sweep finds nothing. That last sweep ends past the previous sweep's last
// augmenting root: a search's outcome depends only on the matching, the
// root and the cap, and every root after that one is matched or already
// failed against the same matching. Augmenting along a longer-than-cap
// path is allowed whenever the search stumbles on one (it only increases
// |M|); the depth limit is purely a work bound.
//
// Engineering note: depth accounting across blossom contractions is
// conservative (contracted vertices inherit the depth of the blossom
// base), and the internal search cap carries a 2x slack over the
// theoretical 2⌈1/ε⌉−1 so that contraction bookkeeping cannot prune a
// genuinely short path. The delivered approximation is measured against
// the exact blossom matcher in tests and experiments. Blossom bases live
// in a version-stamped union-find: a contraction links the bases on the
// two tree paths under the new base and queues, in discovery order, the
// vertices on those paths that were not yet even. It costs
// O(|tree paths|·α) rather than the O(|discovered|) of rescanning every
// vertex the search has discovered.
#pragma once

#include <cstddef>
#include <memory>

#include "matching/matching.hpp"

namespace matchsparse {

/// Theoretical augmenting-path length cap for a (1+eps) guarantee:
/// 2*ceil(1/eps) − 1, clamped to VertexId max / 2 (approx_mcm searches
/// to twice the cap).
VertexId path_cap_for_eps(double eps);

struct ApproxMcmStats {
  std::size_t searches = 0;       // depth-limited blossom searches run
  std::size_t augmentations = 0;  // successful augmenting paths
  std::size_t sweeps = 0;         // passes over the free vertices; the
                                  // last may end early (see above)
};

/// (1+eps)-approximate MCM on a general graph. O(m) greedy init plus
/// depth-limited augmenting searches. The solver's O(n) working arrays
/// are charged to the active guard ("matching.aug arrays") before they
/// are allocated, so a memory budget can trip here.
Matching approx_mcm(const Graph& g, double eps, ApproxMcmStats* stats = nullptr);

/// Same, starting from a caller-provided valid matching.
Matching approx_mcm(const Graph& g, double eps, Matching init,
                    ApproxMcmStats* stats = nullptr);

/// Work-sliced version of approx_mcm for the fully-dynamic window scheme
/// (Theorem 3.5): the computation advances in caller-controlled budget
/// increments measured in *work units* — adjacency entries scanned plus
/// blossom members rebased, plus one per greedy or sweep cursor step —
/// so a dynamic algorithm can interleave a bounded amount of static
/// recomputation with every edge update.
///
/// Pipeline: greedy maximal init (phase 0) followed by sweeps of
/// depth-limited augmenting searches (phase 1), exactly like approx_mcm.
class ResumableApproxMcm {
 public:
  /// g must outlive this object. The solver arrays are charged to the
  /// guard active at construction until destruction, so that guard must
  /// outlive this object too.
  ResumableApproxMcm(const Graph& g, double eps);
  ~ResumableApproxMcm();
  ResumableApproxMcm(ResumableApproxMcm&&) noexcept;
  ResumableApproxMcm& operator=(ResumableApproxMcm&&) noexcept;

  /// Runs until at least `budget` work units are consumed (finishing the
  /// atomic step in flight) or the computation completes. Returns the work
  /// actually performed.
  std::uint64_t advance(std::uint64_t budget);

  bool finished() const;

  /// Total work consumed so far.
  std::uint64_t work() const;

  /// The computed matching; only meaningful once finished().
  Matching result() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace matchsparse
