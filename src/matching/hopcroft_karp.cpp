#include "matching/hopcroft_karp.hpp"

#include <cmath>
#include <limits>
#include <queue>

#include "guard/guard.hpp"

namespace matchsparse {

Bipartition two_color(const Graph& g) {
  Bipartition result;
  result.side.assign(g.num_vertices(), 2);  // 2 = uncolored
  std::queue<VertexId> queue;
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    if (result.side[s] != 2) continue;
    result.side[s] = 0;
    queue.push(s);
    while (!queue.empty()) {
      const VertexId v = queue.front();
      queue.pop();
      for (VertexId w : g.neighbors(v)) {
        if (result.side[w] == 2) {
          result.side[w] = static_cast<std::uint8_t>(1 - result.side[v]);
          queue.push(w);
        } else if (result.side[w] == result.side[v]) {
          result.bipartite = false;
          return result;
        }
      }
    }
  }
  result.bipartite = true;
  return result;
}

int hk_phases_for_eps(double eps) {
  MS_CHECK(eps > 0.0);
  return saturating_cast<int>(std::ceil(1.0 / eps));
}

namespace {

constexpr VertexId kInf = std::numeric_limits<VertexId>::max();

class HopcroftKarp {
 public:
  HopcroftKarp(const Graph& g, std::vector<std::uint8_t> side)
      : g_(g),
        n_(g.num_vertices()),
        side_(std::move(side)),
        mate_(n_, kNoVertex),
        dist_(n_, kInf),
        dist_epoch_(n_, 0) {}

  Matching run(int max_phases) {
    int phases = 0;
    while (max_phases < 0 || phases < max_phases) {
      // Per-phase cancellation point; phases leave mate_ consistent.
      guard::check("matching.hk.phase");
      if (!bfs()) break;
      for (VertexId v = 0; v < n_; ++v) {
        if (side_[v] == 0 && mate_[v] == kNoVertex) dfs(v);
      }
      ++phases;
    }
    Matching result(n_);
    for (VertexId v = 0; v < n_; ++v) {
      if (mate_[v] != kNoVertex && v < mate_[v]) result.match(v, mate_[v]);
    }
    return result;
  }

 private:
  /// A dist_ entry is only meaningful when its stamp matches the current
  /// phase epoch; everything else reads as kInf. Bumping the epoch in
  /// bfs() is the whole between-phase reset — no O(n) std::fill, so a
  /// phase costs only what it reaches (measurable on large sparse G_Δ
  /// whose later phases touch a shrinking active region).
  VertexId dist_of(VertexId v) const {
    return dist_epoch_[v] == epoch_ ? dist_[v] : kInf;
  }

  void set_dist(VertexId v, VertexId d) {
    dist_[v] = d;
    dist_epoch_[v] = epoch_;
  }

  /// Layers left vertices by shortest alternating distance from a free
  /// left vertex; returns true iff some free right vertex is reachable.
  bool bfs() {
    std::queue<VertexId> queue;
    ++epoch_;
    for (VertexId v = 0; v < n_; ++v) {
      if (side_[v] == 0 && mate_[v] == kNoVertex) {
        set_dist(v, 0);
        queue.push(v);
      }
    }
    bool found = false;
    while (!queue.empty()) {
      const VertexId v = queue.front();
      queue.pop();
      for (VertexId w : g_.neighbors(v)) {
        if (mate_[w] == kNoVertex) {
          found = true;  // free right vertex reachable
        } else if (dist_of(mate_[w]) == kInf) {
          set_dist(mate_[w], dist_of(v) + 1);
          queue.push(mate_[w]);
        }
      }
    }
    return found;
  }

  bool dfs(VertexId v) {
    for (VertexId w : g_.neighbors(v)) {
      const VertexId next = mate_[w];
      if (next == kNoVertex ||
          (dist_of(next) == dist_of(v) + 1 && dfs(next))) {
        mate_[v] = w;
        mate_[w] = v;
        return true;
      }
    }
    set_dist(v, kInf);  // dead end: prune this layer entry
    return false;
  }

  const Graph& g_;
  VertexId n_;
  std::vector<std::uint8_t> side_;
  std::vector<VertexId> mate_;
  std::vector<VertexId> dist_;
  std::vector<std::uint64_t> dist_epoch_;
  std::uint64_t epoch_ = 0;
};

}  // namespace

Matching hopcroft_karp(const Graph& g, int max_phases) {
  // side_, mate_, dist_ and dist_epoch_, charged before two_color
  // allocates the first of them. The matcher is serial, so the charge
  // lands on the calling thread's guard.
  const guard::MemCharge charge(
      static_cast<std::uint64_t>(g.num_vertices()) *
          (sizeof(std::uint8_t) + 2 * sizeof(VertexId) +
           sizeof(std::uint64_t)),
      "matching.hk arrays");
  Bipartition bp = two_color(g);
  MS_CHECK_MSG(bp.bipartite, "hopcroft_karp requires a bipartite graph");
  return HopcroftKarp(g, std::move(bp.side)).run(max_phases);
}

}  // namespace matchsparse
