#include "sparsify/sparsifier.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "guard/guard.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
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

// Shard s of `shards` owns the contiguous vertex range
// [n·s/shards, n·(s+1)/shards).
std::pair<VertexId, VertexId> shard_range(VertexId n, std::size_t shards,
                                          std::size_t s) {
  return {static_cast<VertexId>((static_cast<std::uint64_t>(n) * s) / shards),
          static_cast<VertexId>((static_cast<std::uint64_t>(n) * (s + 1)) /
                                shards)};
}

// Marks Δ edges per vertex for the contiguous range [begin, end) with
// draw_marks. `pos` is the caller's (shard-local) sparse position array
// and `picks` its Δ-slot buffer for the drawn positions.
void mark_vertex_range(const Graph& g, VertexId delta, std::uint64_t seed,
                       VertexId begin, VertexId end, EdgeList& out,
                       SparseArray<EdgeIndex>& pos,
                       std::vector<VertexId>& picks, ProbeMeter* meter) {
  for (VertexId v = begin; v < end; ++v) {
    // Cancellation point (non-throwing: this runs on pool workers). A
    // bailed shard leaves a short edge list behind; the orchestrator
    // guard::check()s after the join, before any build consumes it.
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
    draw_marks(deg, delta, seed, v, pos, picks);
    // Gather after drawing: on a cold row the Δ independent neighbour
    // loads overlap instead of each waiting behind the next draw.
    for (VertexId t = 0; t < delta; ++t) {
      out.push_back(Edge(v, g.neighbor(v, picks[t], meter)).normalized());
    }
  }
}

// One marking pass: an edge list and a probe count per shard, their
// totals, and the guard charge for the lists' bytes, which the caller
// holds until it has consumed them.
struct ShardMarks {
  guard::MemCharge charge;
  std::vector<EdgeList> edges;
  std::vector<std::uint64_t> shard_probes;
  std::uint64_t marked = 0;
  std::uint64_t probes = 0;
};

// Sharded marking pass over `pool`. Each shard's exact mark count comes
// from unmetered degree reads on the calling thread, so that the probe
// totals stay those of the marking itself, and the lists are charged here
// before any is allocated: a charge on a worker could not throw.
ShardMarks mark_edges_sharded(const Graph& g, VertexId delta,
                              std::uint64_t seed, ThreadPool& pool,
                              std::size_t shards) {
  const VertexId n = g.num_vertices();
  std::vector<std::size_t> counts(shards, 0);
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const auto [begin, end] = shard_range(n, shards, s);
    for (VertexId v = begin; v < end; ++v) {
      const VertexId deg = g.degree(v);
      counts[s] += deg <= 2 * delta ? deg : delta;
    }
    total += counts[s];
  }
  ShardMarks marks{
      guard::MemCharge(total * sizeof(Edge), "sparsifier mark buffer"),
      std::vector<EdgeList>(shards), std::vector<std::uint64_t>(shards, 0),
      total};
  parallel_for(pool, shards, [&](std::size_t s) {
    const obs::Span span("sparsify.mark.shard");
    const auto [begin, end] = shard_range(n, shards, s);
    marks.edges[s].reserve(counts[s]);
    SparseArray<EdgeIndex> pos(g.max_degree());
    std::vector<VertexId> picks(delta);
    ProbeMeter meter;
    mark_vertex_range(g, delta, seed, begin, end, marks.edges[s], pos, picks,
                      &meter);
    marks.shard_probes[s] = meter.probes();
  });
  guard::check("sparsify.mark");
  for (const std::uint64_t p : marks.shard_probes) marks.probes += p;
  publish_mark_metrics(marks.marked, marks.probes);
  return marks;
}

}  // namespace

void draw_marks(VertexId deg, VertexId delta, std::uint64_t seed, VertexId v,
                SparseArray<EdgeIndex>& pos, std::span<VertexId> picks) {
  MS_DCHECK(delta < deg && deg <= pos.capacity() && delta <= picks.size());
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
}

SparsifierParams SparsifierParams::theoretical(VertexId beta, double eps) {
  return {delta_from_formula(beta, eps, 20.0)};
}

SparsifierParams SparsifierParams::practical(VertexId beta, double eps,
                                             double scale) {
  return {delta_from_formula(beta, eps, scale)};
}

Graph sparsify(const Graph& g, VertexId delta, std::uint64_t seed,
               std::size_t lanes, SparsifierStats* stats) {
  MS_CHECK(delta >= 1);
  const obs::Span span("sparsify.build");
  WallTimer timer;
  ThreadPool& pool = default_pool();
  const VertexId n = g.num_vertices();
  if (lanes == 0) lanes = pool.size();
  const std::size_t shards = std::min<std::size_t>(lanes, n == 0 ? 1 : n);

  // No sort and no merge of the marks: the CSR builder dedups each
  // adjacency list after the scatter, which is where duplicate marks end
  // up regardless of which shard produced them.
  ShardMarks marks = mark_edges_sharded(g, delta, seed, pool, shards);
  const double mark_seconds = timer.seconds();
  Graph result;
  {
    const obs::Span csr_span("sparsify.csr_build");
    result = Graph::from_edge_shards_parallel(n, marks.edges, pool);
  }
  if (stats != nullptr) {
    stats->marked = marks.marked;
    stats->probes = marks.probes;
    stats->shard_probes = std::move(marks.shard_probes);
    stats->edges = result.num_edges();
    stats->mark_seconds = mark_seconds;
    stats->total_seconds = timer.seconds();
    stats->build_seconds = stats->total_seconds - mark_seconds;
  }
  debug_check_time_contract(stats);
  return result;
}

EdgeList sparsify_edges(const Graph& g, VertexId delta, std::uint64_t seed) {
  MS_CHECK(delta >= 1);
  ShardMarks marks = mark_edges_sharded(g, delta, seed, default_pool(), 1);
  EdgeList edges = std::move(marks.edges.front());
  normalize_edge_list(edges);  // both endpoints may mark the same edge
  return edges;
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
