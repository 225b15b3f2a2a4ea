// E12 — micro-benchmarks (google-benchmark) for the Section 3.1
// machinery: the O(1)-init sparse-array position sampler versus the two
// alternatives the paper discusses and rejects (copying the adjacency
// array; rejection sampling), plus matcher kernel costs.
#include <benchmark/benchmark.h>

#include "gen/generators.hpp"
#include "matching/blossom.hpp"
#include "matching/bounded_aug.hpp"
#include "matching/greedy.hpp"
#include "sparsify/sparsifier.hpp"
#include "util/sparse_array.hpp"

namespace matchsparse {
namespace {

// --- sampling strategies over a read-only adjacency array ---------------

/// The paper's pos_v sampler (Section 3.1): O(Δ) per vertex, O(1) reset.
void BM_SampleSparseArray(benchmark::State& state) {
  const auto deg = static_cast<std::size_t>(state.range(0));
  const std::size_t delta = 32;
  SparseArray<std::size_t> pos(deg);
  Rng rng(1);
  for (auto _ : state) {
    pos.reset();
    for (std::size_t t = 0; t < delta; ++t) {
      const std::size_t limit = deg - t;
      const auto i = static_cast<std::size_t>(rng.below(limit));
      const std::size_t j = limit - 1;
      const std::size_t vi = pos.contains(i) ? pos.get(i) : i;
      const std::size_t vj = pos.contains(j) ? pos.get(j) : j;
      pos.set(i, vj);
      pos.set(j, vi);
      benchmark::DoNotOptimize(vi);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(delta));
}
BENCHMARK(BM_SampleSparseArray)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

/// The rejected alternative: copy the adjacency array, Fisher–Yates on the
/// copy — O(deg) per vertex, which is what breaks sublinearity.
void BM_SampleCopyArray(benchmark::State& state) {
  const auto deg = static_cast<std::size_t>(state.range(0));
  const std::size_t delta = 32;
  std::vector<std::uint32_t> adjacency(deg);
  for (std::size_t i = 0; i < deg; ++i) adjacency[i] = static_cast<std::uint32_t>(i);
  Rng rng(2);
  for (auto _ : state) {
    std::vector<std::uint32_t> copy = adjacency;  // the O(deg) cost
    for (std::size_t t = 0; t < delta; ++t) {
      const std::size_t limit = deg - t;
      const auto i = static_cast<std::size_t>(rng.below(limit));
      std::swap(copy[i], copy[limit - 1]);
      benchmark::DoNotOptimize(copy[limit - 1]);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(delta));
}
BENCHMARK(BM_SampleCopyArray)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

/// Rejection sampling with a hash set: expected O(Δ) but with hashing
/// constants and distribution-dependent retries.
void BM_SampleRejection(benchmark::State& state) {
  const auto deg = static_cast<std::size_t>(state.range(0));
  const std::size_t delta = 32;
  Rng rng(3);
  for (auto _ : state) {
    std::vector<std::size_t> chosen;
    chosen.reserve(delta);
    while (chosen.size() < delta) {
      const auto i = static_cast<std::size_t>(rng.below(deg));
      if (std::find(chosen.begin(), chosen.end(), i) == chosen.end()) {
        chosen.push_back(i);
      }
    }
    benchmark::DoNotOptimize(chosen.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(delta));
}
BENCHMARK(BM_SampleRejection)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

// --- end-to-end kernels --------------------------------------------------

void BM_SparsifyCompleteGraph(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  const Graph g = gen::complete_graph(n);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparsify_edges(g, 16, rng()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_SparsifyCompleteGraph)->Arg(256)->Arg(1024)->Arg(4096);

/// Lane scaling of sparsify (per-vertex RNG substreams; output
/// independent of the lane count). One lane runs on the calling thread.
void BM_SparsifyParallelThreads(benchmark::State& state) {
  // ~6M marks per build, so the lanes' work dwarfs their dispatch.
  static const Graph g = [] {
    Rng rng(1);
    return gen::clique_union(100000, 120, 4, rng);
  }();
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparsify(g, 16, 7, threads));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          g.num_vertices());
}
BENCHMARK(BM_SparsifyParallelThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_GreedyMaximal(benchmark::State& state) {
  Rng rng(5);
  const Graph g =
      gen::erdos_renyi(static_cast<VertexId>(state.range(0)), 16.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(greedy_maximal_matching(g));
  }
}
BENCHMARK(BM_GreedyMaximal)->Arg(1 << 12)->Arg(1 << 15);

void BM_ApproxMcm(benchmark::State& state) {
  Rng rng(6);
  const Graph g =
      gen::erdos_renyi(static_cast<VertexId>(state.range(0)), 12.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(approx_mcm(g, 0.25));
  }
}
BENCHMARK(BM_ApproxMcm)->Arg(1 << 11)->Arg(1 << 13);

void BM_BlossomExact(benchmark::State& state) {
  Rng rng(7);
  const Graph g =
      gen::erdos_renyi(static_cast<VertexId>(state.range(0)), 8.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(blossom_mcm(g));
  }
}
BENCHMARK(BM_BlossomExact)->Arg(1 << 9)->Arg(1 << 11);

}  // namespace
}  // namespace matchsparse

BENCHMARK_MAIN();
