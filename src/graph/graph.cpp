#include "graph/graph.hpp"

#include <algorithm>

#include "guard/guard.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace matchsparse {

namespace {

/// Sort with cancellation points. A single std::sort over a few million
/// edges is the longest non-preemptible stretch in the serial pipeline
/// (~100+ ms), long enough to blow the guard's 2x-deadline envelope on
/// its own — so under an installed guard the sort runs as chunked sorts
/// plus inplace_merge passes with a check between chunks. The result is
/// the same sorted sequence either way; the dormant path keeps the
/// single std::sort.
void sort_edges_preemptible(EdgeList& edges) {
  constexpr std::size_t kChunk = 1u << 16;
  if (guard::active() == nullptr || edges.size() <= kChunk) {
    std::sort(edges.begin(), edges.end());
    return;
  }
  for (std::size_t lo = 0; lo < edges.size(); lo += kChunk) {
    guard::check("graph.edges.sort");
    const std::size_t hi = std::min(lo + kChunk, edges.size());
    std::sort(edges.begin() + static_cast<std::ptrdiff_t>(lo),
              edges.begin() + static_cast<std::ptrdiff_t>(hi));
  }
  for (std::size_t width = kChunk; width < edges.size(); width *= 2) {
    for (std::size_t lo = 0; lo + width < edges.size(); lo += 2 * width) {
      guard::check("graph.edges.merge");
      const std::size_t mid = lo + width;
      const std::size_t hi = std::min(lo + 2 * width, edges.size());
      std::inplace_merge(edges.begin() + static_cast<std::ptrdiff_t>(lo),
                         edges.begin() + static_cast<std::ptrdiff_t>(mid),
                         edges.begin() + static_cast<std::ptrdiff_t>(hi));
    }
  }
}

/// True when [first, last) is strictly increasing, i.e. sorted with no
/// duplicates. One read-only pass that stops at the first pair out of
/// order, so the ingest functions sort only lists that need it.
template <typename It>
bool strictly_increasing(It first, It last) {
  return std::adjacent_find(first, last, [](const auto& a, const auto& b) {
           return !(a < b);
         }) == last;
}

}  // namespace

void normalize_edge_list(EdgeList& edges) {
  // Drop self-loops first: sorting entries that are discarded afterwards
  // is wasted O(log m) work per loop, and a loop-heavy list (e.g. a raw
  // contraction output) would inflate the sort for no reason.
  edges.erase(std::remove_if(edges.begin(), edges.end(),
                             [](const Edge& e) { return e.u == e.v; }),
              edges.end());
  for (Edge& e : edges) e = e.normalized();
  // Canonical input (e.g. edge_list() output) is already sorted and
  // duplicate-free, and a duplicate always breaks strict order.
  if (strictly_increasing(edges.begin(), edges.end())) return;
  sort_edges_preemptible(edges);
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
}

Graph Graph::from_edges(VertexId n, const EdgeList& edges) {
  guard::check("graph.csr.build");
  Graph g;
  // Budget accounting covers the arrays that dominate the build: the
  // offsets, the scatter cursors and the adjacency itself. Charges are
  // released on return — the cap bounds concurrent build-time bytes.
  const guard::MemCharge charge_offsets(
      (static_cast<std::uint64_t>(n) + 1) * sizeof(EdgeIndex),
      "csr offsets");
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  g.num_edges_ = edges.size();

  std::size_t seen = 0;
  for (const Edge& e : edges) {
    if ((++seen & 0xFFFF) == 0) guard::check("graph.csr.histogram");
    MS_CHECK_MSG(e.u < n && e.v < n, "edge endpoint out of range");
    MS_CHECK_MSG(e.u != e.v, "self-loop in edge list");
    ++g.offsets_[e.u + 1];
    ++g.offsets_[e.v + 1];
  }
  for (VertexId v = 0; v < n; ++v) g.offsets_[v + 1] += g.offsets_[v];

  const guard::MemCharge charge_adjacency(
      2 * static_cast<std::uint64_t>(edges.size()) * sizeof(VertexId),
      "csr adjacency");
  const guard::MemCharge charge_cursor(
      static_cast<std::uint64_t>(n) * sizeof(EdgeIndex), "csr cursors");
  g.adjacency_.resize(2 * edges.size());
  std::vector<EdgeIndex> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  seen = 0;
  for (const Edge& e : edges) {
    if ((++seen & 0xFFFF) == 0) guard::check("graph.csr.scatter");
    g.adjacency_[cursor[e.u]++] = e.v;
    g.adjacency_[cursor[e.v]++] = e.u;
  }

  for (VertexId v = 0; v < n; ++v) {
    if ((v & 0xFFF) == 0) guard::check("graph.csr.sort");
    auto begin = g.adjacency_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[v]);
    auto end = g.adjacency_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[v + 1]);
    // Scattering a canonical sorted list fills every list in order (v
    // receives each u < v ascending, then each w > v ascending), so only
    // lists from out-of-order input are sorted; a duplicate always breaks
    // the order, so it still reaches the check.
    if (!strictly_increasing(begin, end)) {
      std::sort(begin, end);
      MS_CHECK_MSG(std::adjacent_find(begin, end) == end,
                   "duplicate edge in edge list");
    }
    const auto deg = static_cast<VertexId>(end - begin);
    g.max_degree_ = std::max(g.max_degree_, deg);
    if (deg > 0) ++g.non_isolated_;
  }
  return g;
}

namespace {

// Proportional [begin, end) split of [0, n) into `blocks` contiguous
// ranges; the same scheme the sharded sparsifier uses for vertex ranges.
std::pair<VertexId, VertexId> vertex_block(VertexId n, std::size_t blocks,
                                           std::size_t b) {
  return {static_cast<VertexId>((static_cast<std::uint64_t>(n) * b) / blocks),
          static_cast<VertexId>((static_cast<std::uint64_t>(n) * (b + 1)) /
                                blocks)};
}

}  // namespace

Graph Graph::build_parallel(VertexId n,
                            std::span<const std::span<const Edge>> parts,
                            ThreadPool& pool, DuplicatePolicy policy) {
  const std::size_t num_parts = std::max<std::size_t>(1, parts.size());
  // Vertex-indexed passes run over four blocks per part so the atomic
  // work index smooths out degree skew between ranges. One part is one
  // block, so a one-part build runs every pass on the calling thread.
  const std::size_t blocks =
      n == 0 ? 0
             : std::min<std::size_t>(n, num_parts == 1 ? 1 : 4 * num_parts);

  Graph g;
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);

  // One span for the whole build, plus one per phase (histogram/counting,
  // scatter, transpose) — the shard scatter is the pass the sparsifier
  // pipeline leans on, so it gets its own timing bucket in traces.
  const obs::Span span_build("graph.csr.build");

  // Cancellation protocol for the parallel passes: workers only ever
  // guard::poll() and bail early (an exception escaping a pool task
  // would std::terminate); the orchestrator calls guard::check() after
  // each join, which throws before any partially-written pass output is
  // consumed.
  const guard::MemCharge charge_offsets(
      (static_cast<std::uint64_t>(n) + 1) * sizeof(EdgeIndex),
      "csr offsets");
  const guard::MemCharge charge_hist(
      static_cast<std::uint64_t>(num_parts) * n * sizeof(EdgeIndex),
      "csr shard histograms");

  // Pass A (parallel over parts): per-part degree histograms. EdgeIndex
  // cells so the same storage can hold absolute scatter cursors later.
  std::vector<std::vector<EdgeIndex>> hist(num_parts);
  EdgeIndex total_arcs = 0;
  {
    const obs::Span span("graph.csr.histogram");
    parallel_for(pool, num_parts, [&](std::size_t s) {
      auto& h = hist[s];
      h.assign(n, 0);
      if (s >= parts.size() || guard::poll()) return;
      std::size_t seen = 0;
      for (const Edge& e : parts[s]) {
        if ((++seen & 0xFFFF) == 0 && guard::poll()) return;
        MS_CHECK_MSG(e.u < n && e.v < n, "edge endpoint out of range");
        MS_CHECK_MSG(e.u != e.v, "self-loop in edge list");
        ++h[e.u];
        ++h[e.v];
      }
    });
    guard::check("graph.csr.histogram");

    // Pass B1 (parallel over vertex blocks): total degree per vertex.
    parallel_for(pool, blocks, [&](std::size_t b) {
      if (guard::poll()) return;
      const auto [begin, end] = vertex_block(n, blocks, b);
      for (VertexId v = begin; v < end; ++v) {
        EdgeIndex d = 0;
        for (std::size_t s = 0; s < num_parts; ++s) d += hist[s][v];
        g.offsets_[v + 1] = d;
      }
    });

    // Pass B2 (sequential): prefix sum — the only O(n) serial section.
    guard::check("graph.csr.prefix_sum");
    for (VertexId v = 0; v < n; ++v) g.offsets_[v + 1] += g.offsets_[v];
    total_arcs = g.offsets_[n];

    // Pass B3 (parallel over vertex blocks): turn each histogram cell into
    // the absolute scatter cursor for (part, vertex). Part s writes v's
    // entries at [offsets[v] + sum of earlier parts' counts, ...), so the
    // scatter below is race-free without atomics and the layout equals a
    // sequential scatter of the concatenated parts.
    parallel_for(pool, blocks, [&](std::size_t b) {
      if (guard::poll()) return;
      const auto [begin, end] = vertex_block(n, blocks, b);
      for (VertexId v = begin; v < end; ++v) {
        EdgeIndex run = g.offsets_[v];
        for (std::size_t s = 0; s < num_parts; ++s) {
          const EdgeIndex count = hist[s][v];
          hist[s][v] = run;
          run += count;
        }
      }
    });
  }

  // Pass C (parallel over parts): scatter through the per-part cursors.
  guard::check("graph.csr.scatter");
  const guard::MemCharge charge_adjacency(
      static_cast<std::uint64_t>(total_arcs) * sizeof(VertexId),
      "csr adjacency");
  g.adjacency_.resize(total_arcs);
  {
    const obs::Span span("graph.csr.scatter");
    parallel_for(pool, parts.size(), [&](std::size_t s) {
      if (guard::poll()) return;
      auto& cursor = hist[s];
      std::size_t seen = 0;
      for (const Edge& e : parts[s]) {
        if ((++seen & 0xFFFF) == 0 && guard::poll()) return;
        g.adjacency_[cursor[e.u]++] = e.v;
        g.adjacency_[cursor[e.v]++] = e.u;
      }
    });
    guard::check("graph.csr.scatter");
  }

  // Pass D (parallel over source blocks): a transpose sorts and dedups
  // every list, writing it straight into its final place. The scattered
  // arc multiset is symmetric — {u,v} put v in u's list and u in v's, as
  // often as the edge occurs — so appending x to the list of each
  // neighbour of x, for x ascending, rebuilds every list sorted. A
  // repeated edge {x,y} repeats y within x's list, so it shows while x is
  // the source and is written once.
  //
  // Source block b (B = num_parts contiguous ranges of about equal arc
  // counts) owns row hist[b] of pass A's charged table. A cell packs the
  // last source of b that reached it (x + 1, high half) with a count or
  // slot (low half; a degree always fits):
  //   D1 counts the distinct sources b sends to each vertex;
  //   D2 turns the counts into b's first slot in each list, and the list
  //      lengths into the final offsets and degree statistics;
  //   D3 writes each distinct arc into its slot.
  // Every block fills its own ordered run of each list, so the result
  // equals a sequential transpose for any B.
  constexpr EdgeIndex kLow = 0xFFFFFFFFu;
  std::vector<VertexId> source_begin(num_parts + 1, n);
  for (std::size_t b = 0; b < num_parts; ++b) {
    source_begin[b] = static_cast<VertexId>(
        std::lower_bound(g.offsets_.begin(), g.offsets_.end() - 1,
                         total_arcs * b / num_parts) -
        g.offsets_.begin());
  }
  // Calls visit(x, y, low half of the cell) for the first arc from x to
  // each neighbour y, over block b's sources in ascending order, and then
  // tags the cell with x and bumps its low half. Stops early on a poll.
  const auto for_each_distinct_arc = [&](std::size_t b, const auto& visit) {
    EdgeIndex* const row = hist[b].data();
    for (VertexId x = source_begin[b]; x < source_begin[b + 1]; ++x) {
      if (guard::poll()) return;
      const EdgeIndex tag = (static_cast<EdgeIndex>(x) + 1) << 32;
      for (VertexId y : g.neighbors(x)) {
        const EdgeIndex cell = row[y];
        if ((cell & ~kLow) == tag) continue;  // a repeat of {x, y}
        visit(x, y, cell & kLow);
        row[y] = tag | ((cell & kLow) + 1);
      }
    }
  };

  std::vector<EdgeIndex> final_offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<VertexId> block_max_degree(blocks, 0);
  std::vector<VertexId> block_non_isolated(blocks, 0);
  std::vector<VertexId> sorted;
  {
    const obs::Span span("graph.csr.transpose");
    parallel_for(pool, num_parts, [&](std::size_t b) {
      std::fill_n(hist[b].data(), n, 0);
      for_each_distinct_arc(b, [](VertexId, VertexId, EdgeIndex) {});
    });
    guard::check("graph.csr.transpose");

    parallel_for(pool, blocks, [&](std::size_t b) {
      if (guard::poll()) return;
      const auto [begin, end] = vertex_block(n, blocks, b);
      for (VertexId v = begin; v < end; ++v) {
        EdgeIndex run = 0;
        for (std::size_t r = 0; r < num_parts; ++r) {
          const EdgeIndex count = hist[r][v] & kLow;
          hist[r][v] = run;
          run += count;
        }
        final_offsets[v + 1] = run;
        const auto deg = static_cast<VertexId>(run);
        block_max_degree[b] = std::max(block_max_degree[b], deg);
        if (deg > 0) ++block_non_isolated[b];
      }
    });
    guard::check("graph.csr.transpose");
    for (VertexId v = 0; v < n; ++v) final_offsets[v + 1] += final_offsets[v];
    MS_CHECK_MSG(policy == DuplicatePolicy::kDedupPerVertex ||
                     final_offsets[n] == total_arcs,
                 "duplicate edge in edge list");

    // The second arc array is charged here, on the orchestrator.
    const guard::MemCharge charge_sorted(
        static_cast<std::uint64_t>(final_offsets[n]) * sizeof(VertexId),
        "csr transpose");
    sorted.resize(final_offsets[n]);
    parallel_for(pool, num_parts, [&](std::size_t b) {
      VertexId* const out = sorted.data();
      for_each_distinct_arc(b, [&](VertexId x, VertexId y, EdgeIndex slot) {
        out[final_offsets[y] + slot] = x;
      });
    });
    guard::check("graph.csr.transpose");
  }
  for (std::size_t b = 0; b < blocks; ++b) {
    g.max_degree_ = std::max(g.max_degree_, block_max_degree[b]);
    g.non_isolated_ += block_non_isolated[b];
  }
  g.num_edges_ = final_offsets[n] / 2;
  g.offsets_ = std::move(final_offsets);
  g.adjacency_ = std::move(sorted);  // frees the scattered arcs
  return g;
}

Graph Graph::from_edges_parallel(VertexId n, const EdgeList& edges,
                                 ThreadPool& pool) {
  // Contiguous chunks, at least ~4k edges each so histogram setup cost
  // does not dominate on small inputs.
  const std::size_t chunks = std::clamp<std::size_t>(
      edges.size() / 4096, 1, std::max<std::size_t>(1, pool.size()));
  std::vector<std::span<const Edge>> parts(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = (edges.size() * c) / chunks;
    const std::size_t end = (edges.size() * (c + 1)) / chunks;
    parts[c] = std::span<const Edge>(edges.data() + begin, end - begin);
  }
  return build_parallel(n, parts, pool, DuplicatePolicy::kReject);
}

Graph Graph::from_edge_shards_parallel(VertexId n,
                                       std::span<const EdgeList> shards,
                                       ThreadPool& pool) {
  std::vector<std::span<const Edge>> parts(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) parts[s] = shards[s];
  return build_parallel(n, parts, pool, DuplicatePolicy::kDedupPerVertex);
}

bool Graph::has_edge(VertexId u, VertexId v) const {
  MS_DCHECK(u < num_vertices() && v < num_vertices());
  if (degree(u) > degree(v)) std::swap(u, v);
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

EdgeList Graph::edge_list() const {
  EdgeList edges;
  edges.reserve(num_edges_);
  for (VertexId u = 0; u < num_vertices(); ++u) {
    for (VertexId v : neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return edges;
}

Graph induced_subgraph(const Graph& g, std::span<const VertexId> vertices) {
  // Map original ids to local ids; kNoVertex marks "not in the subgraph".
  std::vector<VertexId> local(g.num_vertices(), kNoVertex);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    MS_CHECK_MSG(local[vertices[i]] == kNoVertex,
                 "duplicate vertex in induced_subgraph");
    local[vertices[i]] = static_cast<VertexId>(i);
  }
  EdgeList edges;
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const VertexId u = vertices[i];
    for (VertexId w : g.neighbors(u)) {
      const VertexId lw = local[w];
      if (lw != kNoVertex && lw > i) {
        edges.emplace_back(static_cast<VertexId>(i), lw);
      }
    }
  }
  return Graph::from_edges(static_cast<VertexId>(vertices.size()), edges);
}

}  // namespace matchsparse
