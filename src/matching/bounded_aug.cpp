#include "matching/bounded_aug.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <vector>

#include "guard/guard.hpp"
#include "matching/greedy.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace matchsparse {

VertexId path_cap_for_eps(double eps) {
  MS_CHECK(eps > 0.0);
  const double k = std::ceil(1.0 / eps);
  return std::min(saturating_cast<VertexId>(2.0 * k - 1.0), kNoVertex / 2);
}

namespace {

/// Depth-limited Edmonds search with version-stamped scratch arrays so
/// that each search costs O(work explored), not O(n) initialisation.
/// Blossom bases live in a union-find over the same stamps, so a
/// contraction costs O(|tree paths|·α), not O(|discovered|). The nine
/// per-vertex arrays are charged to the guard active at construction
/// before they are allocated, and released with the solver.
class BoundedBlossomSolver {
 public:
  BoundedBlossomSolver(const Graph& g, VertexId depth_cap)
      : g_(g),
        n_(g.num_vertices()),
        depth_cap_(depth_cap),
        charge_(static_cast<std::uint64_t>(n_) *
                    (4 * sizeof(VertexId) + 5 * sizeof(std::uint32_t)),
                "matching.aug arrays"),
        match_(n_, kNoVertex),
        parent_(n_, kNoVertex),
        base_(n_, 0),
        depth_(n_, 0),
        discovery_(n_, 0),
        used_stamp_(n_, 0),
        base_stamp_(n_, 0),
        parent_stamp_(n_, 0),
        blossom_stamp_(n_, 0) {}

  void seed(const Matching& init) {
    for (VertexId v = 0; v < n_; ++v) match_[v] = init.mate(v);
  }

  VertexId mate(VertexId v) const { return match_[v]; }

  void force_match(VertexId u, VertexId v) {
    MS_DCHECK(match_[u] == kNoVertex && match_[v] == kNoVertex);
    match_[u] = v;
    match_[v] = u;
  }

  /// Work units consumed so far: adjacency entries scanned plus blossom
  /// members rebased.
  std::uint64_t work() const { return work_; }

  /// O(1) scratch-array resets performed (search-version and
  /// blossom-version bumps) — each stands in for an O(n) clear.
  std::uint64_t stamp_resets() const {
    return static_cast<std::uint64_t>(version_) + blossom_version_;
  }

  /// Runs one depth-limited search from `root`; augments and returns true
  /// on success.
  bool try_augment(VertexId root) {
    ++version_;
    discovered_ = 0;
    set_used(root, 0);
    std::queue<VertexId> queue;
    queue.push(root);
    while (!queue.empty()) {
      const VertexId v = queue.front();
      queue.pop();
      const VertexId dv = depth_[v];
      for (VertexId to : g_.neighbors(v)) {
        // Cancellation point: callers are serial, and unwinding here is
        // safe — the matching is only mutated by augment(), and the
        // version-stamped scratch self-invalidates on the next search.
        if ((++work_ & 0x3FF) == 0) guard::check("matching.aug.search");
        if (base_of(v) == base_of(to) || match_[v] == to) continue;
        if (to == root || (match_[to] != kNoVertex && has_parent(match_[to]))) {
          if (dv + 2 > depth_cap_) continue;  // contraction work bound
          contract_blossom(v, to, queue);
        } else if (!has_parent(to)) {
          set_parent(to, v);
          if (match_[to] == kNoVertex) {
            augment(to);
            return true;
          }
          if (dv + 2 <= depth_cap_) {
            set_used(match_[to], dv + 2);
            queue.push(match_[to]);
          }
        }
      }
    }
    return false;
  }

  Matching extract() const {
    Matching result(n_);
    for (VertexId v = 0; v < n_; ++v) {
      if (match_[v] != kNoVertex && v < match_[v]) result.match(v, match_[v]);
    }
    return result;
  }

 private:
  /// Stamps v with its discovery index the first time this search
  /// touches it (as even or as odd).
  void note_discovery(VertexId v) {
    if (used_stamp_[v] != version_ && parent_stamp_[v] != version_) {
      discovery_[v] = discovered_++;
    }
  }
  bool is_used(VertexId v) const { return used_stamp_[v] == version_; }
  void set_used(VertexId v, VertexId depth) {
    note_discovery(v);
    used_stamp_[v] = version_;
    depth_[v] = depth;
  }
  bool has_parent(VertexId v) const { return parent_stamp_[v] == version_; }
  void set_parent(VertexId v, VertexId p) {
    note_discovery(v);
    parent_stamp_[v] = version_;
    parent_[v] = p;
  }
  /// Union-find root of v's blossom: a vertex without a base stamp this
  /// search is a root, its own base. Compresses the path it walks.
  VertexId base_of(VertexId v) {
    VertexId root = v;
    while (base_stamp_[root] == version_) root = base_[root];
    while (v != root) {
      const VertexId next = base_[v];
      base_[v] = root;
      v = next;
    }
    return root;
  }
  void link_base(VertexId b, VertexId root) {
    MS_DCHECK(b != root);
    base_stamp_[b] = version_;
    base_[b] = root;
  }

  VertexId lowest_common_base(VertexId a, VertexId b) {
    lcb_marks_.clear();
    VertexId cur = a;
    for (;;) {
      cur = base_of(cur);
      lcb_marks_.push_back(cur);
      if (match_[cur] == kNoVertex) break;
      cur = parent_[match_[cur]];
    }
    cur = b;
    for (;;) {
      cur = base_of(cur);
      if (std::find(lcb_marks_.begin(), lcb_marks_.end(), cur) !=
          lcb_marks_.end()) {
        return cur;
      }
      cur = parent_[match_[cur]];
    }
  }

  void mark_path(VertexId v, VertexId stop_base, VertexId child) {
    while (base_of(v) != stop_base) {
      mark_blossom(base_of(v));
      mark_blossom(base_of(match_[v]));
      set_parent(v, child);
      child = match_[v];
      v = parent_[match_[v]];
    }
  }

  void mark_blossom(VertexId b) {
    if (blossom_stamp_[b] != blossom_version_) {
      blossom_stamp_[b] = blossom_version_;
      blossom_members_.push_back(b);
    }
  }

  void contract_blossom(VertexId v, VertexId to, std::queue<VertexId>& queue) {
    const VertexId cur_base = lowest_common_base(v, to);
    ++blossom_version_;
    blossom_members_.clear();
    mark_path(v, cur_base, to);
    mark_path(to, cur_base, v);
    // Linking the bases on the two tree paths under cur_base rebases
    // every vertex of their blossoms at once.
    work_ += blossom_members_.size();
    for (const VertexId b : blossom_members_) link_base(b, cur_base);
    // A vertex that is not yet even is uncontracted, hence its own base:
    // the new even members are exactly the unused bases on the paths.
    // Queue them in discovery order, the order a sweep over every
    // discovered vertex would visit them in.
    std::erase_if(blossom_members_, [this](VertexId b) { return is_used(b); });
    std::sort(blossom_members_.begin(), blossom_members_.end(),
              [this](VertexId a, VertexId b) {
                return discovery_[a] < discovery_[b];
              });
    const VertexId base_depth = depth_[cur_base];
    for (const VertexId i : blossom_members_) {
      set_used(i, base_depth);
      queue.push(i);
    }
  }

  void augment(VertexId leaf) {
    VertexId v = leaf;
    while (v != kNoVertex) {
      const VertexId pv = parent_[v];
      const VertexId next = match_[pv];
      match_[v] = pv;
      match_[pv] = v;
      v = next;
    }
  }

  const Graph& g_;
  VertexId n_;
  VertexId depth_cap_;
  guard::MemCharge charge_;  // declared before the arrays it covers
  std::vector<VertexId> match_, parent_, base_, depth_;
  std::vector<std::uint32_t> discovery_;  // discovery index, this search
  std::vector<std::uint32_t> used_stamp_, base_stamp_, parent_stamp_,
      blossom_stamp_;
  std::uint32_t version_ = 0;
  std::uint32_t blossom_version_ = 0;
  std::uint64_t work_ = 0;
  std::vector<VertexId> lcb_marks_;
  std::vector<VertexId> blossom_members_;
  std::uint32_t discovered_ = 0;  // vertices discovered this search
};

}  // namespace

Matching approx_mcm(const Graph& g, double eps, ApproxMcmStats* stats) {
  return approx_mcm(g, eps, greedy_maximal_matching(g), stats);
}

Matching approx_mcm(const Graph& g, double eps, Matching init,
                    ApproxMcmStats* stats) {
  MS_CHECK_MSG(init.is_valid(g), "approx_mcm: invalid initial matching");
  const obs::Span span("matching.approx_mcm");
  // 2x slack over 2*ceil(1/eps)-1 so blossom depth bookkeeping cannot
  // prune a genuinely short augmenting path (see header).
  const VertexId cap = 2 * path_cap_for_eps(eps);
  BoundedBlossomSolver solver(g, cap);
  solver.seed(init);

  ApproxMcmStats local;
  // A search's outcome depends only on the matching, the root and the cap:
  // the rest of the solver's state is version-stamped per search. So a
  // sweep that has not augmented yet ends past the previous sweep's last
  // augmenting root, where every root is matched or already failed
  // against this same matching. Until the sweep augments, last_augmented
  // still names that root.
  VertexId last_augmented = kNoVertex;
  bool progress = true;
  while (progress) {
    progress = false;
    ++local.sweeps;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (!progress && v > last_augmented) break;
      if ((v & 0xFF) == 0) guard::check("matching.aug.sweep");
      if (solver.mate(v) != kNoVertex || g.degree(v) == 0) continue;
      ++local.searches;
      if (solver.try_augment(v)) {
        ++local.augmentations;
        progress = true;
        last_augmented = v;
      }
    }
  }
  // Counters track the same quantities as ApproxMcmStats. Resolved per
  // call (once per run, so the lookup is cheap) rather than static-
  // cached: obs::counter() is ambient since §14 and a static would pin
  // whichever request's registry the first caller ran under.
  obs::counter("matching.aug.passes").add(local.sweeps);
  obs::counter("matching.aug.searches").add(local.searches);
  obs::counter("matching.aug.augmentations").add(local.augmentations);
  obs::counter("matching.aug.stamp_resets").add(solver.stamp_resets());
  if (stats != nullptr) *stats = local;
  return solver.extract();
}

struct ResumableApproxMcm::Impl {
  const Graph& g;
  BoundedBlossomSolver solver;
  std::uint64_t external_work = 0;  // greedy-phase scans, cursor steps
  int phase = 0;                    // 0 greedy, 1 augment sweeps, 2 done
  VertexId cursor = 0;
  bool sweep_progress = false;
  VertexId last_augmented = kNoVertex;  // last augmenting root so far

  Impl(const Graph& graph, double eps)
      : g(graph), solver(graph, 2 * path_cap_for_eps(eps)) {}

  std::uint64_t total_work() const { return external_work + solver.work(); }

  void step() {
    const VertexId n = g.num_vertices();
    if (phase == 0) {
      if (cursor >= n) {
        phase = 1;
        cursor = 0;
        sweep_progress = false;
        return;
      }
      const VertexId v = cursor++;
      ++external_work;
      if (solver.mate(v) != kNoVertex) return;
      for (VertexId w : g.neighbors(v)) {
        ++external_work;
        if (solver.mate(w) == kNoVertex) {
          solver.force_match(v, w);
          break;
        }
      }
      return;
    }
    // phase 1: augmenting sweeps until a quiet sweep passes the previous
    // sweep's last augmenting root.
    if (cursor >= n || (!sweep_progress && cursor > last_augmented)) {
      if (!sweep_progress) {
        phase = 2;
      } else {
        cursor = 0;
        sweep_progress = false;
      }
      return;
    }
    const VertexId v = cursor++;
    ++external_work;
    if (solver.mate(v) != kNoVertex || g.degree(v) == 0) return;
    if (solver.try_augment(v)) {
      sweep_progress = true;
      last_augmented = v;
    }
  }
};

ResumableApproxMcm::ResumableApproxMcm(const Graph& g, double eps)
    : impl_(std::make_unique<Impl>(g, eps)) {
  if (g.num_vertices() == 0) impl_->phase = 2;
}

ResumableApproxMcm::~ResumableApproxMcm() = default;
ResumableApproxMcm::ResumableApproxMcm(ResumableApproxMcm&&) noexcept =
    default;
ResumableApproxMcm& ResumableApproxMcm::operator=(
    ResumableApproxMcm&&) noexcept = default;

std::uint64_t ResumableApproxMcm::advance(std::uint64_t budget) {
  const std::uint64_t start = impl_->total_work();
  std::uint64_t steps = 0;
  while (impl_->phase != 2 && impl_->total_work() - start < budget) {
    // Per-slice cancellation point on top of the per-search checks
    // inside the solver (greedy-phase steps never enter the solver).
    if ((++steps & 0x3FF) == 0) guard::check("matching.aug.resume");
    impl_->step();
  }
  return impl_->total_work() - start;
}

bool ResumableApproxMcm::finished() const { return impl_->phase == 2; }

std::uint64_t ResumableApproxMcm::work() const {
  return impl_->total_work();
}

Matching ResumableApproxMcm::result() const {
  MS_CHECK_MSG(finished(), "result() before the computation finished");
  return impl_->solver.extract();
}

}  // namespace matchsparse
