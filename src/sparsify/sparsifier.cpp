#include "sparsify/sparsifier.hpp"

#include <algorithm>
#include <cmath>

#include "guard/guard.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/sparse_array.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace matchsparse {

namespace {

/// Folds one marking pass into the paper-invariant counters the
/// observability layer watches (DESIGN.md §11): marks placed and
/// adjacency probes spent. Called once per build, never per vertex —
/// and resolved per call, not static-cached: obs::counter() is ambient
/// since §14 and a static would pin the first request's registry.
void publish_mark_metrics(std::uint64_t marked, std::uint64_t probes) {
  obs::counter("sparsify.marks.total").add(marked);
  obs::counter("sparsify.probes.total").add(probes);
}

/// Debug-mode enforcement of the SparsifierStats timing contract
/// documented on the struct: the phase timings partition the end-to-end
/// time, so mark + build <= total (up to clock reads; the slack covers
/// float rounding of back-to-back timer.seconds() calls).
void debug_check_time_contract(const SparsifierStats* stats) {
  if (stats == nullptr) return;
  MS_DCHECK(stats->mark_seconds >= 0.0 && stats->build_seconds >= 0.0);
  MS_DCHECK(stats->mark_seconds + stats->build_seconds <=
            stats->total_seconds + 1e-9);
#ifdef NDEBUG
  (void)stats;
#endif
}

VertexId delta_from_formula(VertexId beta, double eps, double scale) {
  MS_CHECK_MSG(eps > 0.0 && eps < 1.0, "need 0 < eps < 1");
  MS_CHECK(beta >= 1);
  const double value = scale * (static_cast<double>(beta) / eps) *
                       std::log(24.0 / eps);
  return std::clamp(saturating_cast<VertexId>(std::ceil(value)), VertexId{1},
                    SparsifierParams::kMaxDelta);
}

// Marks Δ edges per vertex for the contiguous range [begin, end) using the
// per-vertex substream mix64(seed, v); shared by every sharded builder.
// `pos` is the caller's (shard-local) sparse position array and `picks`
// its Δ-slot buffer for the drawn positions.
void mark_vertex_range(const Graph& g, VertexId delta, std::uint64_t seed,
                       VertexId begin, VertexId end, EdgeList& out,
                       SparseArray<EdgeIndex>& pos,
                       std::vector<VertexId>& picks, ProbeMeter* meter) {
  for (VertexId v = begin; v < end; ++v) {
    // Cancellation point (non-throwing: this runs on pool workers). A
    // bailed shard leaves a short edge list behind; the orchestrator
    // guard::check()s after the join, before any merge consumes it.
    if ((v & 0xFF) == 0 && guard::poll()) return;
    const VertexId deg = g.degree(v, meter);
    if (deg == 0) continue;
    if (deg <= 2 * delta) {
      // Paper's tweak (Section 3.1): take the whole neighborhood.
      for (VertexId i = 0; i < deg; ++i) {
        out.push_back(Edge(v, g.neighbor(v, i, meter)).normalized());
      }
      continue;
    }
    Rng rng(mix64(seed, v));  // per-vertex substream: order-independent
    pos.reset();
    for (VertexId t = 0; t < delta; ++t) {
      const EdgeIndex limit = deg - t;  // live prefix length
      const auto i = static_cast<EdgeIndex>(rng.below(limit));
      const EdgeIndex j = limit - 1;
      const EdgeIndex vi = pos.contains(i) ? pos.get(i) : i;
      const EdgeIndex vj = pos.contains(j) ? pos.get(j) : j;
      pos.set(i, vj);
      pos.set(j, vi);
      picks[t] = static_cast<VertexId>(vi);
    }
    // Gather after drawing: on a cold row the Δ independent neighbour
    // loads overlap instead of each waiting behind the next draw.
    for (VertexId t = 0; t < delta; ++t) {
      out.push_back(Edge(v, g.neighbor(v, picks[t], meter)).normalized());
    }
  }
}

// Sharded marking pass over `pool`: shard s owns the contiguous vertex
// range [n·s/shards, n·(s+1)/shards). Fills one edge list and one probe
// counter per shard; when `sort_shards` is set each shard's list is sorted
// inside the worker (keeping the O(N log N) cost parallel for callers that
// go on to merge).
void mark_edges_sharded(const Graph& g, VertexId delta, std::uint64_t seed,
                        ThreadPool& pool, std::size_t shards,
                        bool sort_shards, std::vector<EdgeList>& shard_edges,
                        std::vector<std::uint64_t>& shard_probes) {
  const VertexId n = g.num_vertices();
  shard_edges.assign(shards, {});
  shard_probes.assign(shards, 0);
  parallel_for(pool, shards, [&](std::size_t shard) {
    const obs::Span span("sparsify.mark.shard");
    const VertexId begin = static_cast<VertexId>(
        (static_cast<std::uint64_t>(n) * shard) / shards);
    const VertexId end = static_cast<VertexId>(
        (static_cast<std::uint64_t>(n) * (shard + 1)) / shards);
    EdgeList& out = shard_edges[shard];
    // Exact mark count, from unmetered degree reads so that the probe
    // totals stay those of the marking itself.
    std::size_t marks = 0;
    for (VertexId v = begin; v < end; ++v) {
      const VertexId deg = g.degree(v);
      marks += deg <= 2 * delta ? deg : delta;
    }
    out.reserve(marks);
    SparseArray<EdgeIndex> pos(g.max_degree());
    std::vector<VertexId> picks(delta);
    ProbeMeter meter;
    mark_vertex_range(g, delta, seed, begin, end, out, pos, picks, &meter);
    shard_probes[shard] = meter.probes();
    if (sort_shards) std::sort(out.begin(), out.end());
  });
  guard::check("sparsify.mark");
}

void fill_parallel_stats(SparsifierStats* stats,
                         const std::vector<EdgeList>& shard_edges,
                         std::vector<std::uint64_t>&& shard_probes) {
  std::uint64_t marked = 0;
  for (const EdgeList& shard : shard_edges) marked += shard.size();
  std::uint64_t probes = 0;
  for (std::uint64_t p : shard_probes) probes += p;
  publish_mark_metrics(marked, probes);
  if (stats == nullptr) return;
  stats->marked = marked;
  stats->probes = probes;
  stats->shard_probes = std::move(shard_probes);
}

}  // namespace

SparsifierParams SparsifierParams::theoretical(VertexId beta, double eps) {
  return {delta_from_formula(beta, eps, 20.0)};
}

SparsifierParams SparsifierParams::practical(VertexId beta, double eps,
                                             double scale) {
  return {delta_from_formula(beta, eps, scale)};
}

EdgeList sparsify_edges(const Graph& g, VertexId delta, Rng& rng,
                        ProbeMeter* meter, std::uint64_t* marked_out) {
  MS_CHECK(delta >= 1);
  const obs::Span span("sparsify.mark");
  // Probes are only counted when the caller meters the call: an unmetered
  // call stays branch-free in the inner loop (and the registry probe
  // counter simply misses what was never measured).
  const std::uint64_t probes_before = meter != nullptr ? meter->probes() : 0;
  const VertexId n = g.num_vertices();
  EdgeList marked;
  const std::size_t reserve_marks =
      static_cast<std::size_t>(n) * std::min<VertexId>(delta, 16);
  const guard::MemCharge charge_marks(
      static_cast<std::uint64_t>(reserve_marks) * sizeof(Edge),
      "sparsifier mark buffer");
  marked.reserve(reserve_marks);

  // One sparse position array reused across vertices: reset() is O(1), so
  // per-vertex cost stays O(Δ) no matter how large the degrees are.
  SparseArray<EdgeIndex> pos(g.max_degree());

  for (VertexId v = 0; v < n; ++v) {
    if ((v & 0xFF) == 0) guard::check("sparsify.mark");
    const VertexId deg = g.degree(v, meter);
    if (deg == 0) continue;
    if (deg <= 2 * delta) {
      // Paper's tweak (Section 3.1): take the whole neighborhood.
      for (VertexId i = 0; i < deg; ++i) {
        marked.push_back(Edge(v, g.neighbor(v, i, meter)).normalized());
      }
      continue;
    }
    // Implicit Fisher–Yates from the back of the adjacency array, moving
    // entries only inside pos_v (the adjacency array itself is read-only).
    pos.reset();
    for (VertexId t = 0; t < delta; ++t) {
      const EdgeIndex limit = deg - t;  // live prefix length
      const auto i = static_cast<EdgeIndex>(rng.below(limit));
      const EdgeIndex j = limit - 1;
      const EdgeIndex vi = pos.contains(i) ? pos.get(i) : i;
      const EdgeIndex vj = pos.contains(j) ? pos.get(j) : j;
      pos.set(i, vj);
      pos.set(j, vi);
      const VertexId w =
          g.neighbor(v, static_cast<VertexId>(vi), meter);
      marked.push_back(Edge(v, w).normalized());
    }
  }

  const std::uint64_t total_marked = marked.size();
  if (marked_out != nullptr) *marked_out = total_marked;
  publish_mark_metrics(
      total_marked, meter != nullptr ? meter->probes() - probes_before : 0);
  normalize_edge_list(marked);  // both endpoints may mark the same edge
  return marked;
}

Graph sparsify(const Graph& g, VertexId delta, Rng& rng,
               SparsifierStats* stats) {
  WallTimer timer;
  ProbeMeter meter;
  std::uint64_t marked = 0;
  EdgeList edges = sparsify_edges(g, delta, rng, &meter, &marked);
  const double mark_seconds = timer.seconds();
  Graph result;
  {
    const obs::Span span("sparsify.csr_build");
    result = Graph::from_edges(g.num_vertices(), edges);
  }
  const double total_seconds = timer.seconds();
  if (stats != nullptr) {
    stats->probes = meter.probes();
    stats->marked = marked;
    stats->edges = edges.size();
    stats->mark_seconds = mark_seconds;
    stats->build_seconds = total_seconds - mark_seconds;
    stats->total_seconds = total_seconds;
  }
  debug_check_time_contract(stats);
  return result;
}

EdgeList sparsify_edges_parallel(const Graph& g, VertexId delta,
                                 std::uint64_t seed, std::size_t threads,
                                 SparsifierStats* stats) {
  MS_CHECK(delta >= 1);
  const obs::Span span("sparsify.parallel_edges");
  WallTimer timer;
  const VertexId n = g.num_vertices();
  ThreadPool& pool = default_pool();
  if (threads == 0) threads = pool.size();
  const std::size_t shards = std::min<std::size_t>(threads, n == 0 ? 1 : n);

  // Sorting inside the workers keeps the dominant O(N log N) cost
  // parallel; the join below is a cheap O(N log shards) merge.
  std::vector<EdgeList> shard_edges;
  std::vector<std::uint64_t> shard_probes;
  mark_edges_sharded(g, delta, seed, pool, shards, /*sort_shards=*/true,
                     shard_edges, shard_probes);
  fill_parallel_stats(stats, shard_edges, std::move(shard_probes));
  const double mark_seconds = timer.seconds();
  if (stats != nullptr) stats->mark_seconds = mark_seconds;

  const obs::Span merge_span("sparsify.merge");
  std::size_t total = 0;
  for (const EdgeList& shard : shard_edges) total += shard.size();
  EdgeList merged;
  merged.reserve(total);
  std::vector<std::size_t> bounds{0};
  for (EdgeList& shard : shard_edges) {
    merged.insert(merged.end(), shard.begin(), shard.end());
    bounds.push_back(merged.size());
  }
  // Hierarchical in-place merge of the sorted shard ranges.
  while (bounds.size() > 2) {
    std::vector<std::size_t> next{0};
    for (std::size_t i = 0; i + 2 < bounds.size(); i += 2) {
      std::inplace_merge(
          merged.begin() + static_cast<std::ptrdiff_t>(bounds[i]),
          merged.begin() + static_cast<std::ptrdiff_t>(bounds[i + 1]),
          merged.begin() + static_cast<std::ptrdiff_t>(bounds[i + 2]));
      next.push_back(bounds[i + 2]);
    }
    if (bounds.size() % 2 == 0) next.push_back(bounds.back());
    bounds = std::move(next);
  }
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  if (stats != nullptr) {
    stats->edges = merged.size();
    stats->total_seconds = timer.seconds();
    stats->build_seconds = stats->total_seconds - mark_seconds;
  }
  debug_check_time_contract(stats);
  return merged;
}

Graph sparsify_parallel(const Graph& g, VertexId delta, std::uint64_t seed,
                        ThreadPool& pool, SparsifierStats* stats,
                        std::size_t shards) {
  MS_CHECK(delta >= 1);
  const obs::Span span("sparsify.parallel_fused");
  WallTimer timer;
  const VertexId n = g.num_vertices();
  if (shards == 0) shards = pool.size();
  shards = std::min<std::size_t>(shards, n == 0 ? 1 : n);

  // No per-shard sort and no global merge: the CSR builder dedups each
  // adjacency list after the scatter, which is where duplicate marks end
  // up regardless of which shard produced them.
  std::vector<EdgeList> shard_edges;
  std::vector<std::uint64_t> shard_probes;
  mark_edges_sharded(g, delta, seed, pool, shards, /*sort_shards=*/false,
                     shard_edges, shard_probes);
  fill_parallel_stats(stats, shard_edges, std::move(shard_probes));
  const double mark_seconds = timer.seconds();
  if (stats != nullptr) stats->mark_seconds = mark_seconds;

  Graph result;
  {
    const obs::Span csr_span("sparsify.csr_build");
    result = Graph::from_edge_shards_parallel(n, shard_edges, pool);
  }
  if (stats != nullptr) {
    stats->edges = result.num_edges();
    stats->total_seconds = timer.seconds();
    stats->build_seconds = stats->total_seconds - mark_seconds;
  }
  debug_check_time_contract(stats);
  return result;
}

EdgeList sparsify_edges_deterministic(const Graph& g, VertexId delta,
                                      DeterministicRule rule) {
  MS_CHECK(delta >= 1);
  EdgeList marked;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const VertexId deg = g.degree(v);
    const VertexId take = std::min(deg, delta);
    for (VertexId t = 0; t < take; ++t) {
      VertexId i = 0;
      switch (rule) {
        case DeterministicRule::kFirstDelta:
          i = t;
          break;
        case DeterministicRule::kLastDelta:
          i = deg - 1 - t;
          break;
        case DeterministicRule::kStride:
          i = static_cast<VertexId>(
              (static_cast<std::uint64_t>(t) * deg) / take);
          break;
      }
      marked.push_back(Edge(v, g.neighbor(v, i)).normalized());
    }
  }
  normalize_edge_list(marked);
  return marked;
}

}  // namespace matchsparse
